//! Loopback serve → stream → diagnose smoke test: the live ingest
//! daemon's session report must reproduce the batch `pstrace debug`
//! localization for a paper case study, over a real TCP socket.

use std::sync::Arc;

use pstrace::bug::{bug_catalog, case_studies, BugInterceptor};
use pstrace::diag::{run_case_study, CaseStudyConfig, MatchMode};
use pstrace::select::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace::soc::{wirecap, SimConfig, Simulator, SocModel, TraceBufferConfig};
use pstrace::stream::proto::Request;
use pstrace::stream::{connect, replay, send_request, Replay, Server, ServerConfig};
use pstrace::wire::{write_ptw, ProfileV1};

/// The localization line (`  localization    : C of T interleaved-flow
/// paths (P%)`) of a rendered report.
fn localization_line(report: &str) -> String {
    report
        .lines()
        .find(|l| l.trim_start().starts_with("localization"))
        .expect("report carries a localization line")
        .to_owned()
}

#[test]
fn loopback_stream_reproduces_batch_debug_localization() {
    let model = SocModel::t2();
    let case = case_studies()
        .into_iter()
        .find(|c| c.number == 1)
        .expect("case study 1 exists");

    // The batch pipeline, exactly as `pstrace debug --case 1` runs it.
    let batch = run_case_study(&model, &case, CaseStudyConfig::default()).unwrap();
    let batch_line = localization_line(&batch.render(&model));

    // Rebuild the same buggy run's capture as a `.ptw` wire container:
    // same selection, same seed, same injected bugs.
    let scenario = case.scenario.clone();
    let interleaving = scenario.interleaving(&model).unwrap();
    let mut sel_config = SelectionConfig::new(TraceBufferSpec::new(32).unwrap());
    sel_config.packing = true;
    let selection = Selector::new(&interleaving, sel_config).select().unwrap();
    let trace_config = TraceBufferConfig::from_selection(&selection, None);

    let sim = Simulator::new(&model, scenario, SimConfig::with_seed(case.seed));
    let catalog = bug_catalog(&model);
    let mut interceptor = BugInterceptor::new(&model, case.bugs(&catalog));
    let buggy = sim.run_with(&mut interceptor);
    assert!(
        !buggy.status.is_completed(),
        "case study 1 hangs, so the batch pipeline localizes in Prefix mode"
    );

    let schema = wirecap::wire_schema(&model, &trace_config, 32).unwrap();
    let stream = wirecap::encode_events(
        model.catalog(),
        &schema,
        &buggy.events,
        &trace_config,
        &ProfileV1,
    )
    .unwrap();
    let ptw = write_ptw(model.catalog(), &schema, &stream);

    // Serve on an ephemeral loopback port and replay the capture in
    // small chunks so the session crosses many frame boundaries.
    let server = Server::spawn(Arc::new(SocModel::t2()), &ServerConfig::default()).unwrap();
    let plan = Replay {
        chunk_bytes: 64,
        ..Replay::new(case.number, MatchMode::Prefix)
    };
    let report = replay(
        |_| connect(server.local_addr(), &plan.policy),
        model.catalog(),
        &ptw,
        &plan,
    )
    .unwrap();

    // The METRICS verb on the same daemon: the Prometheus exposition must
    // agree with the session the daemon just served.
    let exposition = send_request(server.local_addr(), &Request::Metrics).unwrap();
    for line in [
        "pstrace_stream_sessions_total 1",
        "pstrace_stream_completed_total 1",
        "pstrace_stream_active_sessions 0",
        "pstrace_stream_metrics_requests_total 1",
    ] {
        assert!(
            exposition.contains(&format!("{line}\n")),
            "missing `{line}` in exposition:\n{exposition}"
        );
    }
    // The registry holds aggregates only; the session's own record
    // count is the report's.
    let records = report
        .lines()
        .find_map(|line| {
            let counts = line.trim().strip_prefix("frames          : ")?;
            Some(counts.split(", ").nth(3)?.split_once(" records")?.0)
        })
        .expect("the report counts its records");
    assert!(
        exposition.contains(&format!("pstrace_stream_records_total {records}\n")),
        "records total differs from the report's {records}:\n{exposition}"
    );
    assert!(
        !exposition.contains("session=\""),
        "no series is keyed by session:\n{exposition}"
    );
    let snap = server.snapshot();
    assert_eq!(snap.sessions, 1);
    assert_eq!(snap.completed, 1);
    assert_eq!(snap.failed, 0);
    assert!(snap.records > 0, "records flowed: {snap:?}");
    assert_eq!(snap.bytes, stream.bytes.len() as u64);
    server.shutdown();

    assert!(
        report.contains("(Prefix match)"),
        "session header names the match mode: {report}"
    );
    assert_eq!(
        localization_line(&report),
        batch_line,
        "live localization diverged from batch debug:\n{report}"
    );
}
