//! Cycle-based transaction-level simulation engine.
//!
//! The engine executes a usage scenario's flow instances concurrently under
//! the interleaving semantics of Definition 5: at every cycle one ready
//! instance takes one flow transition, no instance may step while another
//! sits in an atomic state, arbitration and channel latencies are
//! pseudo-random but fully seeded. Each fired transition emits a
//! [`MessageEvent`] carrying a deterministic payload; a
//! [`MessageInterceptor`] (the bug-injection hook) may corrupt, misroute or
//! drop the message before it is observed.
//!
//! The event stream plays the role of the System-Verilog monitors of the
//! paper's Figure 4: design activity already lifted to flow messages.

use pstrace_flow::{FlowIndex, IndexedFlow, IndexedMessage, StateId};
use pstrace_rng::Rng64;

use crate::ip::Ip;
use crate::protocol::SocModel;
use crate::scenario::UsageScenario;
use crate::value::payload;

/// Simulation parameters. All randomness derives from `seed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// RNG seed: same seed, same execution.
    pub seed: u64,
    /// Hang horizon: the run is declared hung beyond this many cycles.
    pub max_cycles: u64,
    /// Minimum channel latency in cycles.
    pub min_latency: u64,
    /// Maximum channel latency in cycles.
    pub max_latency: u64,
    /// Instances start uniformly at random within `0..=start_jitter`.
    pub start_jitter: u64,
    /// Credit-based channel backpressure: each `⟨source, destination⟩`
    /// channel holds this many buffer credits; a message consumes one on
    /// send and the receiver returns it one latency after delivery.
    /// `None` disables backpressure (infinite buffering).
    pub channel_credits: Option<u32>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xda_c2018,
            max_cycles: 1_000_000,
            min_latency: 1,
            max_latency: 24,
            start_jitter: 40,
            channel_credits: None,
        }
    }
}

impl SimConfig {
    /// A default config with the given seed.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SimConfig {
            seed,
            ..Self::default()
        }
    }
}

/// One message observed on an IP interface during simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageEvent {
    /// Cycle at which the message was sent.
    pub time: u64,
    /// The indexed flow message.
    pub message: IndexedMessage,
    /// Source IP.
    pub src: Ip,
    /// Destination IP (a bug may have misrouted it).
    pub dst: Ip,
    /// Payload, truncated to the message width (a bug may have corrupted
    /// it).
    pub value: u64,
    /// Which emission of this indexed message this is (0-based).
    pub occurrence: u32,
}

/// Verdict of a [`MessageInterceptor`] for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InterceptAction {
    /// Deliver the (possibly mutated) message; the flow advances.
    #[default]
    Deliver,
    /// Swallow the message; the sending flow instance never advances past
    /// this transition (models lost handshakes and never-generated
    /// interrupts).
    Drop,
    /// Deliver the message, but its channel credit is never returned — a
    /// credit-leak bug. Harmless until the channel's credit pool drains,
    /// after which senders on that channel stall: a bug whose symptom
    /// needs many messages to manifest.
    DeliverLeakCredit,
}

/// Hook invoked for every message before it is observed; the bug-injection
/// layer implements this.
pub trait MessageInterceptor {
    /// Inspect and possibly mutate `event` (value, destination);
    /// return whether it is delivered.
    fn intercept(&mut self, event: &mut MessageEvent) -> InterceptAction;
}

/// The no-op interceptor used for golden (bug-free) runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoIntercept;

impl MessageInterceptor for NoIntercept {
    fn intercept(&mut self, _event: &mut MessageEvent) -> InterceptAction {
        InterceptAction::Deliver
    }
}

/// Terminal status of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunStatus {
    /// Every flow instance reached a stop state.
    Completed,
    /// At least one instance never completed (dropped message or horizon
    /// exceeded) — the paper's hang/timeout symptom class.
    Hang {
        /// Indices of the instances that never completed.
        stuck: Vec<FlowIndex>,
    },
}

impl RunStatus {
    /// Whether the run completed cleanly.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, RunStatus::Completed)
    }
}

/// Everything a simulation run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// All delivered messages, in emission order.
    pub events: Vec<MessageEvent>,
    /// Terminal status.
    pub status: RunStatus,
    /// Cycle at which the run ended.
    pub cycles: u64,
}

impl SimOutcome {
    /// The observed indexed-message sequence (the full, unfiltered trace).
    #[must_use]
    pub fn message_sequence(&self) -> Vec<IndexedMessage> {
        self.events.iter().map(|e| e.message).collect()
    }
}

#[derive(Debug)]
struct InstanceState {
    flow: IndexedFlow,
    current: StateId,
    ready_at: u64,
    done: bool,
    stuck: bool,
}

/// The transaction-level simulator for one usage scenario.
///
/// # Examples
///
/// ```
/// use pstrace_soc::{SimConfig, Simulator, SocModel, UsageScenario};
///
/// let model = SocModel::t2();
/// let sim = Simulator::new(&model, UsageScenario::scenario1(), SimConfig::with_seed(7));
/// let outcome = sim.run();
/// assert!(outcome.status.is_completed());
/// // PIOR (5) + PIOW (2) + Mon (5) messages were observed.
/// assert_eq!(outcome.events.len(), 12);
/// ```
#[derive(Debug)]
pub struct Simulator<'m> {
    model: &'m SocModel,
    scenario: UsageScenario,
    config: SimConfig,
}

impl<'m> Simulator<'m> {
    /// Creates a simulator for `scenario` on `model`.
    #[must_use]
    pub fn new(model: &'m SocModel, scenario: UsageScenario, config: SimConfig) -> Self {
        Simulator {
            model,
            scenario,
            config,
        }
    }

    /// The scenario under simulation.
    #[must_use]
    pub fn scenario(&self) -> &UsageScenario {
        &self.scenario
    }

    /// Runs a golden (bug-free) simulation.
    #[must_use]
    pub fn run(&self) -> SimOutcome {
        self.run_with(&mut NoIntercept)
    }

    /// Runs a simulation with `interceptor` inspecting every message.
    ///
    /// Arbitration, latencies and payloads depend only on the seed and the
    /// interceptor's actions, so a golden and a buggy run with the same
    /// seed diverge only where the bug acts.
    pub fn run_with(&self, interceptor: &mut dyn MessageInterceptor) -> SimOutcome {
        let mut rng = Rng64::seed_from_u64(self.config.seed);
        let mut instances: Vec<InstanceState> = self
            .scenario
            .instances(self.model)
            .into_iter()
            .map(|flow| {
                let current = flow.flow().initial_states()[0];
                let ready_at = rng.gen_range_u64(0, self.config.start_jitter);
                InstanceState {
                    flow,
                    current,
                    ready_at,
                    done: false,
                    stuck: false,
                }
            })
            .collect();

        let mut atomic_holder: Option<usize> = None;
        let mut occurrences: std::collections::HashMap<IndexedMessage, u32> =
            std::collections::HashMap::new();
        let mut events: Vec<MessageEvent> = Vec::new();
        let mut now = 0u64;
        // Channel credit state (only used when backpressure is enabled):
        // available credits per channel, plus the pending return times.
        let mut credits: std::collections::HashMap<crate::ip::IpPair, u32> =
            std::collections::HashMap::new();
        let mut credit_returns: Vec<(u64, crate::ip::IpPair)> = Vec::new();
        let credit_cap = self.config.channel_credits;
        let available = |credits: &mut std::collections::HashMap<crate::ip::IpPair, u32>,
                         pair: crate::ip::IpPair|
         -> u32 {
            match credit_cap {
                None => u32::MAX,
                Some(cap) => *credits.entry(pair).or_insert(cap),
            }
        };

        loop {
            // Release credits that have returned by `now`.
            if credit_cap.is_some() {
                let mut i = 0;
                while i < credit_returns.len() {
                    if credit_returns[i].0 <= now {
                        let (_, pair) = credit_returns.swap_remove(i);
                        *credits.entry(pair).or_insert(0) += 1;
                    } else {
                        i += 1;
                    }
                }
            }
            // Which instances may step? Pending, not blocked by another
            // instance holding the atomic token, and (with backpressure)
            // with at least one outgoing edge whose channel has credit.
            let movable: Vec<usize> = instances
                .iter()
                .enumerate()
                .filter(|(i, s)| !s.done && !s.stuck && atomic_holder.map_or(true, |h| h == *i))
                .map(|(i, _)| i)
                .collect();
            if movable.is_empty() {
                break;
            }
            let unblocked: Vec<usize> = movable
                .iter()
                .copied()
                .filter(|&i| {
                    let s = &instances[i];
                    s.flow.flow().edges_from(s.current).any(|e| {
                        let pair = self
                            .model
                            .endpoints(e.message)
                            .expect("every model message has endpoints");
                        available(&mut credits, pair) > 0
                    })
                })
                .collect();
            if unblocked.is_empty() {
                // Everyone is waiting on credits: advance to the earliest
                // return, or declare deadlock if none is pending.
                match credit_returns.iter().map(|&(t, _)| t).min() {
                    Some(t) if t <= self.config.max_cycles => {
                        now = now.max(t);
                        continue;
                    }
                    _ => break,
                }
            }
            // Advance time to the earliest ready unblocked instance.
            let earliest = unblocked
                .iter()
                .map(|&i| instances[i].ready_at)
                .min()
                .expect("nonempty");
            now = now.max(earliest);
            if now > self.config.max_cycles {
                break;
            }
            let ready: Vec<usize> = unblocked
                .iter()
                .copied()
                .filter(|&i| instances[i].ready_at <= now)
                .collect();
            if ready.is_empty() {
                continue;
            }
            // Random arbitration among ready instances.
            let chosen = ready[rng.gen_index(ready.len())];
            let flow = instances[chosen].flow.flow().clone();
            let index = instances[chosen].flow.index();
            let out_edges: Vec<pstrace_flow::Edge> = flow
                .edges_from(instances[chosen].current)
                .filter(|e| {
                    let pair = self
                        .model
                        .endpoints(e.message)
                        .expect("every model message has endpoints");
                    available(&mut credits, pair) > 0
                })
                .copied()
                .collect();
            debug_assert!(
                !out_edges.is_empty(),
                "unblocked instances have a sendable edge"
            );
            let edge = out_edges[rng.gen_index(out_edges.len())];

            let message = IndexedMessage::new(edge.message, index);
            let occurrence = {
                let c = occurrences.entry(message).or_insert(0);
                let occ = *c;
                *c += 1;
                occ
            };
            let endpoints = self
                .model
                .endpoints(edge.message)
                .expect("every model message has endpoints");
            let width = self.model.catalog().width(edge.message);
            let mut event = MessageEvent {
                time: now,
                message,
                src: endpoints.src,
                dst: endpoints.dst,
                value: payload(self.config.seed, message, occurrence, width),
                occurrence,
            };

            let channel = crate::ip::IpPair::new(event.src, event.dst);
            let action = interceptor.intercept(&mut event);
            if credit_cap.is_some() && action != InterceptAction::Drop {
                // The send consumes one buffer credit on its channel.
                let c = credits.entry(channel).or_insert(0);
                debug_assert!(*c > 0, "credit-blocked edges are not sendable");
                *c -= 1;
            }
            match action {
                InterceptAction::Deliver | InterceptAction::DeliverLeakCredit => {
                    events.push(event);
                    let was_atomic = flow.is_atomic(instances[chosen].current);
                    instances[chosen].current = edge.to;
                    if flow.is_stop(edge.to) {
                        instances[chosen].done = true;
                    }
                    let latency =
                        rng.gen_range_u64(self.config.min_latency, self.config.max_latency);
                    instances[chosen].ready_at = now + latency;
                    if credit_cap.is_some() && action == InterceptAction::Deliver {
                        // The receiver frees the buffer entry one latency
                        // after delivery; a leak never returns it.
                        let return_latency =
                            rng.gen_range_u64(self.config.min_latency, self.config.max_latency);
                        credit_returns.push((now + latency + return_latency, channel));
                    }
                    // Atomic token bookkeeping.
                    if flow.is_atomic(edge.to) {
                        atomic_holder = Some(chosen);
                    } else if was_atomic && atomic_holder == Some(chosen) {
                        atomic_holder = None;
                    }
                }
                InterceptAction::Drop => {
                    instances[chosen].stuck = true;
                    // The message was never generated, so no credit was
                    // consumed. A stuck atomic holder keeps the token and
                    // starves the rest of the system — exactly the deadlock
                    // a lost atomic handshake causes in silicon.
                }
            }
        }

        let stuck: Vec<FlowIndex> = instances
            .iter()
            .filter(|s| !s.done)
            .map(|s| s.flow.index())
            .collect();
        let status = if stuck.is_empty() {
            RunStatus::Completed
        } else {
            RunStatus::Hang { stuck }
        };
        SimOutcome {
            events,
            status,
            cycles: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FlowKind;

    fn model() -> SocModel {
        SocModel::t2()
    }

    #[test]
    fn golden_run_completes_all_scenarios() {
        let m = model();
        for scenario in UsageScenario::all_paper_scenarios() {
            let expected: usize = scenario
                .flows()
                .iter()
                .map(|&(k, n)| m.flow(k).messages().len() * n as usize)
                .sum();
            let sim = Simulator::new(&m, scenario.clone(), SimConfig::with_seed(1));
            let out = sim.run();
            assert!(out.status.is_completed(), "{}", scenario.name());
            assert_eq!(out.events.len(), expected, "{}", scenario.name());
        }
    }

    #[test]
    fn same_seed_same_execution() {
        let m = model();
        let a = Simulator::new(&m, UsageScenario::scenario1(), SimConfig::with_seed(9)).run();
        let b = Simulator::new(&m, UsageScenario::scenario1(), SimConfig::with_seed(9)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ_in_interleaving() {
        let m = model();
        let runs: Vec<Vec<IndexedMessage>> = (0..20)
            .map(|s| {
                Simulator::new(&m, UsageScenario::scenario1(), SimConfig::with_seed(s))
                    .run()
                    .message_sequence()
            })
            .collect();
        let mut dedup = runs.clone();
        dedup.sort();
        dedup.dedup();
        assert!(dedup.len() > 1, "arbitration must vary across seeds");
    }

    #[test]
    fn events_respect_per_instance_flow_order() {
        let m = model();
        for seed in 0..10 {
            let out =
                Simulator::new(&m, UsageScenario::scenario3(), SimConfig::with_seed(seed)).run();
            // For each instance, the projected message sequence must be a
            // root-to-stop path of its flow (linear flows: exact match).
            for inst in UsageScenario::scenario3().instances(&m) {
                let seq: Vec<_> = out
                    .events
                    .iter()
                    .filter(|e| e.message.index == inst.index())
                    .map(|e| e.message.message)
                    .collect();
                let expected: Vec<_> = inst.flow().messages().to_vec();
                assert_eq!(seq, expected);
            }
        }
    }

    #[test]
    fn event_times_are_nondecreasing() {
        let m = model();
        let out = Simulator::new(&m, UsageScenario::scenario2(), SimConfig::with_seed(4)).run();
        for w in out.events.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn dropping_a_message_hangs_that_instance() {
        struct DropSiincu(pstrace_flow::MessageId);
        impl MessageInterceptor for DropSiincu {
            fn intercept(&mut self, event: &mut MessageEvent) -> InterceptAction {
                if event.message.message == self.0 {
                    InterceptAction::Drop
                } else {
                    InterceptAction::Deliver
                }
            }
        }
        let m = model();
        let siincu = m.catalog().get("siincu").unwrap();
        let sim = Simulator::new(&m, UsageScenario::scenario1(), SimConfig::with_seed(3));
        let out = sim.run_with(&mut DropSiincu(siincu));
        match out.status {
            RunStatus::Hang { ref stuck } => assert!(!stuck.is_empty()),
            RunStatus::Completed => panic!("dropping siincu must hang PIOR or Mon"),
        }
        assert!(out.message_sequence().iter().all(|im| im.message != siincu));
    }

    #[test]
    fn corruption_changes_value_not_structure() {
        struct CorruptGrant(pstrace_flow::MessageId);
        impl MessageInterceptor for CorruptGrant {
            fn intercept(&mut self, event: &mut MessageEvent) -> InterceptAction {
                if event.message.message == self.0 {
                    event.value ^= 0b1;
                }
                InterceptAction::Deliver
            }
        }
        let m = model();
        let grant = m.catalog().get("grant").unwrap();
        let config = SimConfig::with_seed(5);
        let golden = Simulator::new(&m, UsageScenario::scenario1(), config).run();
        let buggy = Simulator::new(&m, UsageScenario::scenario1(), config)
            .run_with(&mut CorruptGrant(grant));
        assert!(buggy.status.is_completed());
        assert_eq!(golden.message_sequence(), buggy.message_sequence());
        let diffs: Vec<_> = golden
            .events
            .iter()
            .zip(&buggy.events)
            .filter(|(g, b)| g.value != b.value)
            .collect();
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].0.message.message, grant);
    }

    #[test]
    fn atomic_state_excludes_concurrent_atomics() {
        // Two Mondo instances: their MonDispatch occupancy intervals must
        // not overlap. Dispatch is entered on observing siincu and left on
        // mondoacknack.
        let m = model();
        let scenario = UsageScenario::custom(9, "two mondos", &[(FlowKind::Mondo, 2)]);
        for seed in 0..10 {
            let out = Simulator::new(&m, scenario.clone(), SimConfig::with_seed(seed)).run();
            assert!(out.status.is_completed());
            let siincu = m.catalog().get("siincu").unwrap();
            let ack = m.catalog().get("mondoacknack").unwrap();
            // Walk events tracking who is inside dispatch.
            let mut inside: Option<FlowIndex> = None;
            for e in &out.events {
                if e.message.message == siincu {
                    assert!(inside.is_none(), "second dispatch while one active");
                    inside = Some(e.message.index);
                } else if e.message.message == ack {
                    assert_eq!(inside, Some(e.message.index));
                    inside = None;
                }
            }
        }
    }

    #[test]
    fn credit_backpressure_preserves_completion() {
        // With one credit per channel every scenario still completes: the
        // receiver returns credits and nothing deadlocks.
        let m = model();
        let mut scenarios = UsageScenario::all_paper_scenarios();
        scenarios.push(UsageScenario::scenario_dma());
        for scenario in scenarios {
            for seed in 0..5 {
                let mut config = SimConfig::with_seed(seed);
                config.channel_credits = Some(1);
                let out = Simulator::new(&m, scenario.clone(), config).run();
                assert!(
                    out.status.is_completed(),
                    "{} seed {seed} deadlocked under credits",
                    scenario.name()
                );
                let expected: usize = scenario
                    .flows()
                    .iter()
                    .map(|&(k, n)| m.flow(k).messages().len() * n as usize)
                    .sum();
                assert_eq!(out.events.len(), expected);
            }
        }
    }

    #[test]
    fn credit_backpressure_serializes_shared_channels() {
        // Two NCU Upstream instances share the MCU -> NCU channel; with a
        // single credit the second mcudata cannot be sent before the first
        // one's credit returns.
        let m = model();
        let scenario = UsageScenario::custom(8, "two ncuu", &[(FlowKind::NcuUpstream, 2)]);
        let mcudata = m.catalog().get("mcudata").unwrap();
        for seed in 0..10 {
            let mut config = SimConfig::with_seed(seed);
            config.channel_credits = Some(1);
            let out = Simulator::new(&m, scenario.clone(), config).run();
            assert!(out.status.is_completed());
            let times: Vec<u64> = out
                .events
                .iter()
                .filter(|e| e.message.message == mcudata)
                .map(|e| e.time)
                .collect();
            assert_eq!(times.len(), 2);
            // The credit round trip needs at least 2 latencies >= 2 cycles.
            assert!(
                times[1] >= times[0] + 2,
                "seed {seed}: sends not serialized"
            );
        }
    }

    #[test]
    fn leaked_credits_eventually_hang_the_channel() {
        struct LeakFirstMcudata(pstrace_flow::MessageId, bool);
        impl MessageInterceptor for LeakFirstMcudata {
            fn intercept(&mut self, event: &mut MessageEvent) -> InterceptAction {
                if event.message.message == self.0 && !self.1 {
                    self.1 = true;
                    return InterceptAction::DeliverLeakCredit;
                }
                InterceptAction::Deliver
            }
        }
        let m = model();
        let scenario = UsageScenario::custom(8, "two ncuu", &[(FlowKind::NcuUpstream, 2)]);
        let mcudata = m.catalog().get("mcudata").unwrap();
        let mut config = SimConfig::with_seed(3);
        config.channel_credits = Some(1);
        let sim = Simulator::new(&m, scenario, config);
        let out = sim.run_with(&mut LeakFirstMcudata(mcudata, false));
        match out.status {
            RunStatus::Hang { ref stuck } => assert_eq!(stuck.len(), 1),
            RunStatus::Completed => panic!("leaked credit must starve the second instance"),
        }
        // The first instance's messages were all delivered; the second
        // instance never sent its mcudata.
        let count = out
            .events
            .iter()
            .filter(|e| e.message.message == mcudata)
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn credits_disabled_is_the_default_and_unchanged() {
        let m = model();
        let a = Simulator::new(&m, UsageScenario::scenario1(), SimConfig::with_seed(9)).run();
        let mut config = SimConfig::with_seed(9);
        config.channel_credits = None;
        let b = Simulator::new(&m, UsageScenario::scenario1(), config).run();
        assert_eq!(a, b);
    }

    #[test]
    fn horizon_is_respected() {
        let m = model();
        let mut config = SimConfig::with_seed(2);
        config.max_cycles = 1; // absurdly small horizon
        let out = Simulator::new(&m, UsageScenario::scenario1(), config).run();
        // Either it hangs at the horizon or completes within a cycle
        // (impossible given latencies ≥ 1 and 12 messages).
        assert!(!out.status.is_completed());
    }
}
