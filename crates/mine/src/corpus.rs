//! Corpus generation: turn usage-scenario simulations into execution
//! logs for mining.
//!
//! Mining needs *complete* observations: a selection-filtered capture
//! (the paper's width-constrained trace buffer) deliberately drops
//! messages and can never support recovery of a full flow DAG. The
//! corpus therefore captures **all** messages of the scenario's flows
//! with a trace-buffer body wide enough for every payload, optionally
//! pushing each capture through the real wire encode/decode path so the
//! corpus exercises the same frame machinery as production `.ptw` files.

use pstrace_soc::wirecap::{encode_events, wire_schema, ProfileV1};
use pstrace_soc::{capture, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario};
use pstrace_wire::{decode_stream, WireError};

use crate::miner::Miner;
use crate::seq::ExecutionLog;

/// A full-visibility trace-buffer configuration for `scenario`: all
/// scenario messages, body wide enough for the widest payload set.
#[must_use]
pub fn full_capture_config(model: &SocModel, scenario: &UsageScenario) -> TraceBufferConfig {
    TraceBufferConfig::messages_only(&scenario.messages(model))
}

/// Total payload width of the scenario's message set — wire lanes are
/// laid out side by side, so the frame body must fit their sum for every
/// message to be traced in full.
#[must_use]
pub fn full_body_width(model: &SocModel, scenario: &UsageScenario) -> u32 {
    scenario
        .messages(model)
        .iter()
        .map(|&m| model.catalog().width(m))
        .sum::<u32>()
        .max(1)
}

/// Simulates `scenario` once per seed and returns the execution logs.
///
/// With `wire` set, every capture is encoded into wire frames and
/// decoded back before mining — the corpus then reflects exactly what a
/// `.ptw` consumer would see (including any skipped frames, returned as
/// the second tuple element).
pub fn scenario_executions(
    model: &SocModel,
    scenario: &UsageScenario,
    seeds: &[u64],
    wire: bool,
) -> Result<(Vec<ExecutionLog>, u64), WireError> {
    let config = full_capture_config(model, scenario);
    let mut logs = Vec::with_capacity(seeds.len());
    let mut skipped = 0u64;
    for &seed in seeds {
        let outcome = Simulator::new(model, scenario.clone(), SimConfig::with_seed(seed)).run();
        if wire {
            let schema = wire_schema(model, &config, full_body_width(model, scenario))?;
            let stream = encode_events(
                model.catalog(),
                &schema,
                &outcome.events,
                &config,
                &ProfileV1,
            )?;
            let report = decode_stream(&schema, &stream.bytes, Some(stream.bit_len));
            skipped += report.damaged.len() as u64;
            logs.push(ExecutionLog::from_wire_records(&report.records));
        } else {
            let trace = capture(model, &outcome, &config);
            logs.push(ExecutionLog::from_trace(&trace));
        }
    }
    Ok((logs, skipped))
}

/// Builds a miner pre-loaded with `scenario` executions for each seed.
pub fn scenario_miner(
    model: &SocModel,
    scenario: &UsageScenario,
    seeds: &[u64],
    wire: bool,
    config: crate::miner::MiningConfig,
) -> Result<Miner, WireError> {
    let (logs, _skipped) = scenario_executions(model, scenario, seeds, wire)?;
    let mut miner = Miner::new(model.catalog().clone(), config);
    for log in logs {
        miner.push_log(log);
    }
    Ok(miner)
}

/// The default corpus seeds: enough runs for every simulator arbitration
/// branch (e.g. the coherence grant split) to appear several times.
#[must_use]
pub fn default_seeds(count: u64) -> Vec<u64> {
    (0..count).map(|i| 0xA11CE ^ (i * 7919)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::MiningConfig;

    #[test]
    fn modeled_and_wire_corpora_agree_on_clean_runs() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let seeds = default_seeds(2);
        let (modeled, _) = scenario_executions(&model, &scenario, &seeds, false).expect("modeled");
        let (wired, skipped) = scenario_executions(&model, &scenario, &seeds, true).expect("wire");
        assert_eq!(skipped, 0, "clean encode/decode must not drop frames");
        assert_eq!(modeled.len(), wired.len());
        for (m, w) in modeled.iter().zip(&wired) {
            let ms: Vec<_> = m.records.iter().map(|r| r.message).collect();
            let ws: Vec<_> = w.records.iter().map(|r| r.message).collect();
            assert_eq!(ms, ws, "wire round-trip must preserve the message stream");
        }
    }

    #[test]
    fn scenario_miner_recovers_linear_pior_flow() {
        let model = SocModel::t2();
        let scenario = UsageScenario::scenario1();
        let miner = scenario_miner(
            &model,
            &scenario,
            &default_seeds(4),
            true,
            MiningConfig::default(),
        )
        .expect("miner");
        let report = miner.mine();
        assert!(
            !report.candidates.is_empty(),
            "scenario 1 must yield candidates"
        );
        assert_eq!(report.stats.skipped_frames, 0);
    }
}
