//! Live debugging session: inject a bug, stream the wire capture into an
//! ingest session frame by frame, and watch path localization narrow as
//! each frame arrives — then replay the same capture to a loopback
//! `pstraced` daemon over real TCP and print its session report.
//!
//! Run with: `cargo run --example live_debug`

use std::error::Error;
use std::sync::Arc;

use pstrace::bug::{bug_catalog, case_studies, BugInterceptor};
use pstrace::diag::MatchMode;
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig};
use pstrace::stream::{connect, replay, Replay, Server, ServerConfig, Session};
use pstrace::wire::write_ptw;

fn main() -> Result<(), Box<dyn Error>> {
    let model = SocModel::t2();
    let case = case_studies()
        .into_iter()
        .find(|c| c.number == 1)
        .expect("case study 1 exists");
    println!(
        "case study {} over {}: {}",
        case.number,
        case.scenario.name(),
        case.root_cause
    );

    // Select messages for the 32-bit buffer and run the buggy silicon.
    let scenario = case.scenario.clone();
    let flow = scenario.interleaving(&model)?;
    let selection =
        Selector::new(&flow, SelectionConfig::new(TraceBufferSpec::new(32)?)).select()?;
    let trace_config = TraceBufferConfig {
        messages: selection.chosen.messages.clone(),
        groups: selection.packed_groups.clone(),
        depth: None,
    };
    let sim = Simulator::new(&model, scenario, SimConfig::with_seed(case.seed));
    let catalog = bug_catalog(&model);
    let mut interceptor = BugInterceptor::new(&model, case.bugs(&catalog));
    let buggy = sim.run_with(&mut interceptor);

    // Encode the capture into wire frames.
    let schema = wirecap::wire_schema(&model, &trace_config, 32)?;
    let stream = wirecap::encode_events(
        model.catalog(),
        &schema,
        &buggy.events,
        &trace_config,
        &wirecap::ProfileV1,
    )?;
    println!(
        "captured {} frames of {} bits each\n",
        stream.frames,
        schema.frame_bits()
    );

    // Feed the payload into an ingest session one byte at a time and
    // report localization whenever a frame completes: the consistent-path
    // count can only shrink as evidence accumulates.
    let mut session = Session::new(&flow, schema.clone(), MatchMode::Prefix);
    let mut frames_seen = 0;
    for byte in &stream.bytes {
        session.push_chunk(std::slice::from_ref(byte));
        let m = session.metrics();
        if m.frames > frames_seen {
            frames_seen = m.frames;
            let loc = session.localization();
            println!(
                "  frame {:>3}: {:>3} of {} interleaved-flow paths consistent ({:.2}%)",
                frames_seen,
                loc.consistent,
                loc.total,
                loc.fraction() * 100.0
            );
        }
    }
    let report = session.finish(Some(stream.bit_len));
    println!("\nin-process session:\n{}", report.render());

    // The same capture over real TCP: spin up a loopback daemon, replay
    // the `.ptw` container in small chunks, print the daemon's report.
    let ptw = write_ptw(model.catalog(), &schema, &stream);
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default())?;
    println!("loopback daemon on {}", server.local_addr());
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(case.number, MatchMode::Prefix)
    };
    let remote = replay(
        |_| connect(server.local_addr(), &plan.policy),
        model.catalog(),
        &ptw,
        &plan,
    )?;
    server.shutdown();
    println!("{remote}");
    Ok(())
}
