//! The daemon's shared cache of compiled localizer programs.
//!
//! Everything an [`OnlineLocalizer`] needs besides its live column is
//! fixed per `(scenario, selected set, mode)`, so the daemon compiles it
//! once and hands every later session an `Arc` of the same
//! [`LocalizerProgram`]. The cache fills lazily — nothing is compiled at
//! spawn — and is bounded: interleavings by the five protocol scenario
//! numbers, programs by [`PROGRAM_CACHE_CAP`]. Compilation runs outside
//! the lock, so a miss on one shard never stalls another shard's open.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pstrace_diag::{LocalizerProgram, MatchMode, OnlineLocalizer};
use pstrace_flow::{InterleavedFlow, MessageId};
use pstrace_obs::{Counter, Registry};
use pstrace_soc::SocModel;

use crate::error::StreamError;
use crate::server::{scenario_by_number, SCENARIO_COUNT};

/// Programs one daemon caches; once full, further distinct
/// `(scenario, selected, mode)` keys compile per session, uncached.
pub const PROGRAM_CACHE_CAP: usize = 64;

#[derive(Debug, PartialEq, Eq, Hash)]
struct ProgramKey {
    scenario: u8,
    selected: Vec<MessageId>,
    mode: MatchMode,
}

/// Per-daemon program cache, shared by every shard through `FleetCtx`.
#[derive(Debug)]
pub(crate) struct ProgramCache {
    /// One interleaving per protocol scenario number, built on first use.
    interleavings: [OnceLock<InterleavedFlow>; SCENARIO_COUNT],
    programs: Mutex<HashMap<ProgramKey, Arc<LocalizerProgram>>>,
    hit: Counter,
    miss: Counter,
    bypass: Counter,
}

impl ProgramCache {
    /// An empty cache counting into
    /// `pstrace_stream_program_cache_total{result=hit|miss|bypass}`.
    pub(crate) fn new(registry: &Registry) -> Self {
        let counter = |result| {
            registry.counter_with("pstrace_stream_program_cache_total", &[("result", result)])
        };
        ProgramCache {
            interleavings: Default::default(),
            programs: Mutex::new(HashMap::new()),
            hit: counter("hit"),
            miss: counter("miss"),
            bypass: counter("bypass"),
        }
    }

    /// The program for `(scenario, selected, mode)`: cached (`hit`),
    /// compiled and cached (`miss`), or compiled uncached once the cache
    /// holds [`PROGRAM_CACHE_CAP`] programs (`bypass`).
    ///
    /// # Errors
    ///
    /// [`StreamError::Protocol`] for a scenario number outside the
    /// protocol's range or one that does not interleave; neither counts.
    pub(crate) fn program(
        &self,
        model: &SocModel,
        scenario: u8,
        selected: Vec<MessageId>,
        mode: MatchMode,
    ) -> Result<Arc<LocalizerProgram>, StreamError> {
        let key = ProgramKey {
            scenario,
            selected,
            mode,
        };
        if let Some(program) = self.lock().get(&key) {
            self.hit.inc();
            return Ok(Arc::clone(program));
        }
        let flow = self.interleaving(model, scenario)?;
        let compiled = OnlineLocalizer::compile(flow, &key.selected, mode);
        let mut programs = self.lock();
        let full = programs.len() >= PROGRAM_CACHE_CAP;
        Ok(match programs.entry(key) {
            // Another shard compiled the same key meanwhile: share its
            // copy so every session over the key runs one program.
            Entry::Occupied(e) => {
                self.miss.inc();
                Arc::clone(e.get())
            }
            Entry::Vacant(_) if full => {
                self.bypass.inc();
                compiled
            }
            Entry::Vacant(e) => {
                self.miss.inc();
                Arc::clone(e.insert(compiled))
            }
        })
    }

    /// The interleaving of protocol scenario `n`, built on first use.
    fn interleaving(&self, model: &SocModel, n: u8) -> Result<&InterleavedFlow, StreamError> {
        let scenario = scenario_by_number(n)?;
        let slot = &self.interleavings[usize::from(n) - 1];
        if let Some(flow) = slot.get() {
            return Ok(flow);
        }
        let flow = scenario
            .interleaving(model)
            .map_err(|e| StreamError::Protocol(format!("scenario does not interleave: {e}")))?;
        Ok(slot.get_or_init(|| flow))
    }

    /// The program map; a panic elsewhere cannot leave it half-updated
    /// (every critical section is one map operation), so poisoning is
    /// ignored rather than turned into a daemon-wide failure.
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<ProgramKey, Arc<LocalizerProgram>>> {
        self.programs.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_interleaving_slot_per_protocol_scenario() {
        for n in 1..=SCENARIO_COUNT as u8 {
            assert!(scenario_by_number(n).is_ok(), "scenario {n}");
        }
        assert!(scenario_by_number(0).is_err());
        assert!(scenario_by_number(SCENARIO_COUNT as u8 + 1).is_err());
    }
}
