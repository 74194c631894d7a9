//! Transport-seam fault injection: a `Read + Write` wrapper that makes a
//! healthy byte stream behave like a hostile network.
//!
//! [`ChaosStream`] sits between the replay client and its socket.
//! Every `write` call is one fault opportunity: the wrapper may swallow
//! the bytes (drop), deliver only a prefix (split), stall before
//! delivering (delay), dribble one byte and stall (slow-loris), or tear
//! the connection down (disconnect). All decisions draw from a forked
//! [`Rng64`], so the fault sequence — recorded in the wrapper's
//! [`FaultLedger`] — is a pure function of the seed and the write call
//! sequence. The PSTS client gathers an upload (request, data chunks,
//! FINISH) in one 64 KiB buffer and writes it a full buffer at a time,
//! so an upload that fits is one opportunity (a resume sends its request
//! alone first, one more): a drop swallows the whole upload, and a split
//! can cut anywhere inside it. A split or slow-loris delivers a prefix
//! and reports it, so the client's write of the rest is a fresh
//! opportunity. Reads (the resume ack and the reply) pass through
//! untouched, except on a torn-down stream, which stays dead.

use std::io::{self, Read, Write};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use pstrace_obs::{EventKind, FlightHandle};
use pstrace_rng::Rng64;

use crate::ledger::FaultLedger;
use crate::plan::{FaultKind, TransportFaults};

/// A deterministic chaos wrapper around any byte stream.
///
/// The ledger lives behind an `Arc<Mutex<…>>` because the hardened
/// client consumes (and on reconnect drops) the transport it is handed —
/// the soak harness keeps a handle and reads the faults back afterward.
#[derive(Debug)]
pub struct ChaosStream<S> {
    inner: S,
    plan: TransportFaults,
    rng: Rng64,
    ledger: Arc<Mutex<FaultLedger>>,
    session: u64,
    writes: u64,
    torn: bool,
    /// When bound, every injected fault is also journaled as a flight
    /// `Fault` event, so the recorder's dump shows what chaos did beside
    /// what the daemon did about it.
    flight: Option<FlightHandle>,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner`, injecting per `plan` with draws from `rng`.
    /// `session` labels the ledger entries.
    #[must_use]
    pub fn new(inner: S, plan: TransportFaults, rng: Rng64, session: u64) -> Self {
        ChaosStream::with_ledger(
            inner,
            plan,
            rng,
            session,
            Arc::new(Mutex::new(FaultLedger::new())),
        )
    }

    /// [`new`](ChaosStream::new), recording into a caller-held ledger —
    /// the handle survives the wrapper, so faults injected into a
    /// transport the client has since dropped are still accounted for.
    #[must_use]
    pub fn with_ledger(
        inner: S,
        plan: TransportFaults,
        rng: Rng64,
        session: u64,
        ledger: Arc<Mutex<FaultLedger>>,
    ) -> Self {
        ChaosStream {
            inner,
            plan,
            rng,
            ledger,
            session,
            writes: 0,
            torn: false,
            flight: None,
        }
    }

    /// Journals every injected fault through `flight` as well as the
    /// ledger.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// A handle to the ledger of faults injected so far.
    #[must_use]
    pub fn ledger(&self) -> Arc<Mutex<FaultLedger>> {
        Arc::clone(&self.ledger)
    }

    /// Unwraps, returning the inner stream and the ledger handle.
    pub fn into_parts(self) -> (S, Arc<Mutex<FaultLedger>>) {
        (self.inner, self.ledger)
    }

    fn record(&self, kind: FaultKind, position: u64, magnitude: u64) {
        self.ledger
            .lock()
            .expect("chaos ledger lock poisoned")
            .record(self.session, kind, position, magnitude);
        if let Some(f) = &self.flight {
            f.note(EventKind::Fault, kind.label());
        }
    }

    fn torn_err() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos: connection torn down")
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.torn {
            return Err(Self::torn_err());
        }
        if buf.is_empty() {
            return self.inner.write(buf);
        }
        let pos = self.writes;
        self.writes += 1;

        // One draw per decision, in a fixed order, so the ledger is a
        // pure function of the seed and the write sequence.
        if self.plan.disconnect > 0.0 && self.rng.gen_f64() < self.plan.disconnect {
            self.torn = true;
            self.record(FaultKind::Disconnect, pos, buf.len() as u64);
            return Err(Self::torn_err());
        }
        if self.plan.drop_chunk > 0.0 && self.rng.gen_f64() < self.plan.drop_chunk {
            // Fake success: the caller believes the bytes went out.
            self.record(FaultKind::DropChunk, pos, buf.len() as u64);
            return Ok(buf.len());
        }
        if self.plan.slow_loris > 0.0 && self.rng.gen_f64() < self.plan.slow_loris {
            self.record(FaultKind::SlowLoris, pos, 1);
            thread::sleep(Duration::from_micros(self.plan.delay_us.max(50)));
            return self.inner.write(&buf[..1]);
        }
        if self.plan.split_chunk > 0.0
            && buf.len() >= 2
            && self.rng.gen_f64() < self.plan.split_chunk
        {
            let cut = 1 + self.rng.gen_index(buf.len() - 1);
            self.record(FaultKind::SplitChunk, pos, cut as u64);
            return self.inner.write(&buf[..cut]);
        }
        if self.plan.delay_chunk > 0.0 && self.rng.gen_f64() < self.plan.delay_chunk {
            self.record(FaultKind::DelayChunk, pos, self.plan.delay_us);
            thread::sleep(Duration::from_micros(self.plan.delay_us));
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.torn {
            return Err(Self::torn_err());
        }
        self.inner.flush()
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.torn {
            return Err(Self::torn_err());
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::FaultPlan;

    fn quiet_transport() -> TransportFaults {
        FaultPlan::quiet(0).transport
    }

    fn unwrap_ledger(ledger: Arc<Mutex<FaultLedger>>) -> FaultLedger {
        Arc::try_unwrap(ledger)
            .expect("sole ledger handle")
            .into_inner()
            .expect("ledger lock clean")
    }

    #[test]
    fn quiet_plan_passes_bytes_through() {
        let mut chaos = ChaosStream::new(Vec::new(), quiet_transport(), Rng64::seed_from_u64(1), 0);
        chaos.write_all(b"hello").unwrap();
        chaos.write_all(b" world").unwrap();
        chaos.flush().unwrap();
        let (inner, ledger) = chaos.into_parts();
        assert_eq!(inner, b"hello world");
        assert!(unwrap_ledger(ledger).is_empty());
    }

    #[test]
    fn drop_swallows_bytes_but_reports_success() {
        let mut plan = quiet_transport();
        plan.drop_chunk = 1.0;
        let mut chaos = ChaosStream::new(Vec::new(), plan, Rng64::seed_from_u64(2), 0);
        assert_eq!(chaos.write(b"vanish").unwrap(), 6);
        let (inner, ledger) = chaos.into_parts();
        assert!(inner.is_empty());
        assert_eq!(unwrap_ledger(ledger).counts()["drop-chunk"], 1);
    }

    #[test]
    fn split_delivers_a_strict_prefix() {
        let mut plan = quiet_transport();
        plan.split_chunk = 1.0;
        let mut chaos = ChaosStream::new(Vec::new(), plan, Rng64::seed_from_u64(3), 0);
        let n = chaos.write(b"abcdefgh").unwrap();
        assert!((1..8).contains(&n), "split wrote {n} of 8");
        let (inner, ledger) = chaos.into_parts();
        assert_eq!(&inner[..], &b"abcdefgh"[..n]);
        assert_eq!(unwrap_ledger(ledger).counts()["split-chunk"], 1);
        // write_all drives the retry loop to completion despite splits.
        let mut plan = quiet_transport();
        plan.split_chunk = 1.0;
        let mut chaos = ChaosStream::new(Vec::new(), plan, Rng64::seed_from_u64(3), 0);
        chaos.write_all(b"abcdefgh").unwrap();
        assert_eq!(chaos.into_parts().0, b"abcdefgh");
    }

    #[test]
    fn disconnect_kills_the_stream_permanently() {
        let mut plan = quiet_transport();
        plan.disconnect = 1.0;
        let mut chaos = ChaosStream::new(
            io::Cursor::new(Vec::new()),
            plan,
            Rng64::seed_from_u64(4),
            0,
        );
        let err = chaos.write(b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert!(chaos.write(b"y").is_err());
        assert!(chaos.flush().is_err());
        let mut buf = [0u8; 1];
        assert!(chaos.read(&mut buf).is_err());
        assert_eq!(chaos.ledger().lock().unwrap().counts()["disconnect"], 1);
    }

    #[test]
    fn slow_loris_dribbles_one_byte() {
        let mut plan = quiet_transport();
        plan.slow_loris = 1.0;
        plan.delay_us = 1;
        let mut chaos = ChaosStream::new(Vec::new(), plan, Rng64::seed_from_u64(5), 0);
        assert_eq!(chaos.write(b"abc").unwrap(), 1);
        assert_eq!(chaos.into_parts().0, b"a");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = FaultPlan::heavy(11).transport;
        let run = || {
            let mut chaos = ChaosStream::new(Vec::new(), plan, Rng64::seed_from_u64(11).fork(1), 0);
            for i in 0..200u32 {
                let payload = i.to_le_bytes();
                let _ = chaos.write(&payload);
            }
            let (inner, ledger) = chaos.into_parts();
            (inner, unwrap_ledger(ledger))
        };
        let (ia, la) = run();
        let (ib, lb) = run();
        assert_eq!(ia, ib);
        assert_eq!(la.fingerprint(), lb.fingerprint());
        assert!(!la.is_empty());
    }
}
