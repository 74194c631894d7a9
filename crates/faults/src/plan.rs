//! The fault plan: which faults, how often, in what temporal shape.
//!
//! A [`FaultPlan`] is pure data — kinds × rates × a burst model per seam.
//! Applying it always goes through a forked [`Rng64`] stream keyed by
//! `(seed, session)`, so the same plan and seed reproduce the same fault
//! sequence byte for byte regardless of how many sessions ran before.

use pstrace_rng::Rng64;

/// Where in the pipeline a fault is injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seam {
    /// The encoded frame bytes themselves (what the trace buffer holds).
    Wire,
    /// The transport carrying chunks to the daemon (the TCP stream).
    Transport,
    /// Whole-session events (damage storms spanning many frames).
    Session,
    /// The daemon process itself (kill -9, armed crash points).
    Daemon,
}

impl Seam {
    /// Stable lowercase label, used in ledgers and metric labels.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Seam::Wire => "wire",
            Seam::Transport => "transport",
            Seam::Session => "session",
            Seam::Daemon => "daemon",
        }
    }
}

/// Every fault the injector knows how to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[non_exhaustive]
pub enum FaultKind {
    /// One bit flipped somewhere in the wire stream.
    BitFlip,
    /// The wire stream cut short mid-frame.
    Truncate,
    /// A frame sent twice back to back.
    DuplicateFrame,
    /// Two adjacent frames swapped.
    ReorderFrames,
    /// A transport write silently swallowed (bytes never arrive).
    DropChunk,
    /// A transport write delivered only partially per call.
    SplitChunk,
    /// A transport write delayed before delivery.
    DelayChunk,
    /// The connection torn down mid-stream.
    Disconnect,
    /// Slow-loris: bytes dribbled out one at a time with pauses.
    SlowLoris,
    /// A contiguous region of the wire stream stomped with noise — the
    /// session-seam storm that empties the online localizer frontier.
    DamageStorm,
    /// The daemon process destroyed outright (SIGKILL) mid-soak.
    ProcessKill,
    /// An armed in-daemon crash point (`PSTRACE_CRASH_POINT`) fired,
    /// aborting the process inside a WAL critical section.
    CrashPoint,
}

impl FaultKind {
    /// Stable kebab-case label — the `kind` label on
    /// `pstrace_faults_injected_total` and the ledger's display name.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BitFlip => "bit-flip",
            FaultKind::Truncate => "truncate",
            FaultKind::DuplicateFrame => "duplicate-frame",
            FaultKind::ReorderFrames => "reorder-frames",
            FaultKind::DropChunk => "drop-chunk",
            FaultKind::SplitChunk => "split-chunk",
            FaultKind::DelayChunk => "delay-chunk",
            FaultKind::Disconnect => "disconnect",
            FaultKind::SlowLoris => "slow-loris",
            FaultKind::DamageStorm => "damage-storm",
            FaultKind::ProcessKill => "process-kill",
            FaultKind::CrashPoint => "crash-point",
        }
    }

    /// Which seam this fault attacks.
    #[must_use]
    pub fn seam(self) -> Seam {
        match self {
            FaultKind::BitFlip
            | FaultKind::Truncate
            | FaultKind::DuplicateFrame
            | FaultKind::ReorderFrames => Seam::Wire,
            FaultKind::DropChunk
            | FaultKind::SplitChunk
            | FaultKind::DelayChunk
            | FaultKind::Disconnect
            | FaultKind::SlowLoris => Seam::Transport,
            FaultKind::DamageStorm => Seam::Session,
            FaultKind::ProcessKill | FaultKind::CrashPoint => Seam::Daemon,
        }
    }
}

/// How faults cluster in time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstModel {
    /// Every opportunity draws independently at the base rate.
    Uniform,
    /// A two-state Gilbert–Elliott gate: in the *burst* state the base
    /// rate is multiplied by `boost`; the gate enters a burst with
    /// probability `enter` per opportunity and leaves with probability
    /// `exit`. Models the paper's observation that real trace damage
    /// arrives in storms (a dead buffer bank), not as white noise.
    Bursty {
        /// Probability of entering a burst at each opportunity.
        enter: f64,
        /// Probability of leaving the burst at each opportunity.
        exit: f64,
        /// Rate multiplier while inside a burst.
        boost: f64,
    },
}

impl BurstModel {
    /// A mildly clustered default: rare bursts, ~8 opportunities long,
    /// 20× the base rate inside.
    #[must_use]
    pub fn default_bursty() -> Self {
        BurstModel::Bursty {
            enter: 0.01,
            exit: 0.125,
            boost: 20.0,
        }
    }
}

/// The stateful coin the injectors toss: a base rate shaped by a
/// [`BurstModel`], advanced by one deterministic RNG draw per
/// opportunity (plus one for the gate when bursty).
#[derive(Debug, Clone)]
pub struct FaultGate {
    rate: f64,
    model: BurstModel,
    in_burst: bool,
}

impl FaultGate {
    /// A gate firing at `rate` per opportunity, shaped by `model`.
    #[must_use]
    pub fn new(rate: f64, model: BurstModel) -> Self {
        FaultGate {
            rate,
            model,
            in_burst: false,
        }
    }

    /// One opportunity: advances the burst state and draws the coin.
    pub fn fires(&mut self, rng: &mut Rng64) -> bool {
        let rate = match self.model {
            BurstModel::Uniform => self.rate,
            BurstModel::Bursty { enter, exit, boost } => {
                let gate_draw = rng.gen_f64();
                if self.in_burst {
                    if gate_draw < exit {
                        self.in_burst = false;
                    }
                } else if gate_draw < enter {
                    self.in_burst = true;
                }
                if self.in_burst {
                    (self.rate * boost).min(1.0)
                } else {
                    self.rate
                }
            }
        };
        if rate <= 0.0 {
            return false;
        }
        rng.gen_f64() < rate
    }
}

/// Wire-seam rates, per opportunity noted on each field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireFaults {
    /// Bit flips per *bit* of stream.
    pub bit_flip: f64,
    /// Probability the stream is truncated mid-frame (once per stream).
    pub truncate: f64,
    /// Frame duplications per frame.
    pub duplicate_frame: f64,
    /// Adjacent-frame swaps per frame.
    pub reorder_frames: f64,
    /// Temporal clustering of the bit flips.
    pub burst: BurstModel,
}

/// Transport-seam rates, per `write` call on the chaos stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransportFaults {
    /// Probability a write is silently dropped.
    pub drop_chunk: f64,
    /// Probability a write is delivered only partially.
    pub split_chunk: f64,
    /// Probability a write is delayed by `delay_us`.
    pub delay_chunk: f64,
    /// Microseconds of delay per delayed write.
    pub delay_us: u64,
    /// Probability the connection is torn down at a write.
    pub disconnect: f64,
    /// Probability a write degenerates to slow-loris dribbling.
    pub slow_loris: f64,
}

/// Session-seam rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionFaults {
    /// Probability a stream suffers a damage storm (once per stream).
    pub damage_storm: f64,
    /// Storm length as a fraction of the stream's frames.
    pub storm_frames: f64,
}

/// A composable, seed-keyed description of everything that will go
/// wrong: fault kinds × rates × burst models at the three seams.
///
/// Plans are plain data; the injectors
/// ([`corrupt_wire`](crate::corrupt_wire),
/// [`ChaosStream`](crate::ChaosStream)) consume a plan plus a forked RNG
/// and append to a [`FaultLedger`](crate::FaultLedger). Identical
/// `(plan, seed)` ⇒ identical ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; per-session streams fork off it.
    pub seed: u64,
    /// Wire-seam configuration.
    pub wire: WireFaults,
    /// Transport-seam configuration.
    pub transport: TransportFaults,
    /// Session-seam configuration.
    pub session: SessionFaults,
}

impl FaultPlan {
    /// A plan that injects nothing — the identity baseline.
    #[must_use]
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            wire: WireFaults {
                bit_flip: 0.0,
                truncate: 0.0,
                duplicate_frame: 0.0,
                reorder_frames: 0.0,
                burst: BurstModel::Uniform,
            },
            transport: TransportFaults {
                drop_chunk: 0.0,
                split_chunk: 0.0,
                delay_chunk: 0.0,
                delay_us: 0,
                disconnect: 0.0,
                slow_loris: 0.0,
            },
            session: SessionFaults {
                damage_storm: 0.0,
                storm_frames: 0.0,
            },
        }
    }

    /// Light corruption: sparse bit flips, occasional transport splits.
    /// Suitable for a CI smoke that must stay fast.
    #[must_use]
    pub fn light(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed);
        plan.wire.bit_flip = 2e-4;
        plan.wire.duplicate_frame = 0.002;
        plan.wire.reorder_frames = 0.002;
        plan.transport.split_chunk = 0.05;
        plan.transport.delay_chunk = 0.01;
        plan.transport.delay_us = 50;
        plan
    }

    /// The default soak intensity: every fault kind enabled at rates
    /// that exercise each degradation path within a few sessions.
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed);
        plan.wire.bit_flip = 1e-3;
        plan.wire.truncate = 0.05;
        plan.wire.duplicate_frame = 0.005;
        plan.wire.reorder_frames = 0.005;
        plan.wire.burst = BurstModel::default_bursty();
        plan.transport.drop_chunk = 0.01;
        plan.transport.split_chunk = 0.10;
        plan.transport.delay_chunk = 0.02;
        plan.transport.delay_us = 100;
        plan.transport.disconnect = 0.005;
        plan.transport.slow_loris = 0.01;
        plan.session.damage_storm = 0.10;
        plan.session.storm_frames = 0.15;
        plan
    }

    /// Hostile conditions: heavy flips in long bursts, frequent storms,
    /// flaky transport. Sessions are expected to fail often — the bar is
    /// that they fail *gracefully* and the daemon survives.
    #[must_use]
    pub fn heavy(seed: u64) -> Self {
        let mut plan = FaultPlan::quiet(seed);
        plan.wire.bit_flip = 5e-3;
        plan.wire.truncate = 0.15;
        plan.wire.duplicate_frame = 0.02;
        plan.wire.reorder_frames = 0.02;
        plan.wire.burst = BurstModel::Bursty {
            enter: 0.02,
            exit: 0.05,
            boost: 40.0,
        };
        plan.transport.drop_chunk = 0.03;
        plan.transport.split_chunk = 0.20;
        plan.transport.delay_chunk = 0.05;
        plan.transport.delay_us = 200;
        plan.transport.disconnect = 0.02;
        plan.transport.slow_loris = 0.02;
        plan.session.damage_storm = 0.35;
        plan.session.storm_frames = 0.30;
        plan
    }

    /// This plan with the transport faults that change connection
    /// control flow (dropped writes, mid-stream disconnects) zeroed out.
    ///
    /// Every remaining fault — bit flips, storms, splits, delays,
    /// slow-loris dribbles — leaves the client's attempt count and the
    /// server's ack offsets unchanged, so the *complete* soak ledger
    /// (transport seam included) is a pure function of the seed, with no
    /// dependence on reconnect timing. Reconnect-path faults are still
    /// exercised by plans that keep them; their wire/session-seam ledger
    /// entries stay deterministic either way.
    #[must_use]
    pub fn without_reconnect_faults(mut self) -> Self {
        self.transport.drop_chunk = 0.0;
        self.transport.disconnect = 0.0;
        self
    }

    /// Parses an intensity name (`quiet`, `light`, `standard`, `heavy`),
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns the unknown name back for error reporting.
    pub fn by_intensity(name: &str, seed: u64) -> Result<Self, String> {
        match name.to_ascii_lowercase().as_str() {
            "quiet" => Ok(FaultPlan::quiet(seed)),
            "light" => Ok(FaultPlan::light(seed)),
            "standard" | "default" => Ok(FaultPlan::standard(seed)),
            "heavy" => Ok(FaultPlan::heavy(seed)),
            other => Err(format!(
                "unknown intensity `{other}`; use quiet, light, standard or heavy"
            )),
        }
    }

    /// The RNG stream for session number `session` under this plan: a
    /// pure function of `(seed, session)`, independent of every other
    /// session's draws.
    #[must_use]
    pub fn session_rng(&self, session: u64) -> Rng64 {
        Rng64::seed_from_u64(self.seed).fork(0x005e_5510_0000 ^ session)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_stable_and_distinct() {
        let kinds = [
            FaultKind::BitFlip,
            FaultKind::Truncate,
            FaultKind::DuplicateFrame,
            FaultKind::ReorderFrames,
            FaultKind::DropChunk,
            FaultKind::SplitChunk,
            FaultKind::DelayChunk,
            FaultKind::Disconnect,
            FaultKind::SlowLoris,
            FaultKind::DamageStorm,
            FaultKind::ProcessKill,
            FaultKind::CrashPoint,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len(), "labels collide");
        for k in kinds {
            assert!(!k.seam().label().is_empty());
        }
    }

    #[test]
    fn gates_are_deterministic_per_seed() {
        let mut a = Rng64::seed_from_u64(5);
        let mut b = Rng64::seed_from_u64(5);
        let mut ga = FaultGate::new(0.3, BurstModel::default_bursty());
        let mut gb = FaultGate::new(0.3, BurstModel::default_bursty());
        for _ in 0..500 {
            assert_eq!(ga.fires(&mut a), gb.fires(&mut b));
        }
    }

    #[test]
    fn bursty_gate_clusters_fires() {
        let mut rng = Rng64::seed_from_u64(11);
        let mut gate = FaultGate::new(
            0.01,
            BurstModel::Bursty {
                enter: 0.02,
                exit: 0.05,
                boost: 50.0,
            },
        );
        let fires: Vec<bool> = (0..20_000).map(|_| gate.fires(&mut rng)).collect();
        let total = fires.iter().filter(|&&f| f).count();
        assert!(total > 100, "bursty gate fired only {total} times");
        // Clustering: the chance a fire is followed by another fire must
        // clearly exceed the marginal rate.
        let pairs = fires.windows(2).filter(|w| w[0] && w[1]).count();
        let follow_rate = pairs as f64 / total as f64;
        let marginal = total as f64 / fires.len() as f64;
        assert!(
            follow_rate > marginal * 3.0,
            "no clustering: follow {follow_rate:.4} vs marginal {marginal:.4}"
        );
    }

    #[test]
    fn zero_rate_never_fires_and_one_always() {
        let mut rng = Rng64::seed_from_u64(2);
        let mut never = FaultGate::new(0.0, BurstModel::Uniform);
        let mut always = FaultGate::new(1.0, BurstModel::Uniform);
        for _ in 0..100 {
            assert!(!never.fires(&mut rng));
            assert!(always.fires(&mut rng));
        }
    }

    #[test]
    fn intensity_parsing_and_session_forks() {
        assert!(FaultPlan::by_intensity("HEAVY", 1).is_ok());
        assert!(FaultPlan::by_intensity("nope", 1).is_err());
        let plan = FaultPlan::standard(9);
        let mut a = plan.session_rng(3);
        let mut b = plan.session_rng(3);
        let mut c = plan.session_rng(4);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
