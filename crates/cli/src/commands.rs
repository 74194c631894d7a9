//! Subcommand implementations.

use std::error::Error;
use std::sync::Arc;

use pstrace_bug::{bug_catalog, case_studies, BugInterceptor};
use pstrace_codec::flight::{
    flight_catalog, flight_message_name, lifecycle_flow, lifecycle_messages, read_flight_dump,
    render_chrome, render_timeline,
};
use pstrace_core::{SelectionConfig, Selector, TraceBufferSpec};
use pstrace_diag::{run_case_study_observed, scenario_causes, CaseStudyConfig, MatchMode};
use pstrace_flow::{dot, path_count, FlowIndex, IndexedFlow, IndexedMessage, InterleavedFlow};
use pstrace_mine::{evaluate, ExecutionLog, Miner, MiningConfig};
use pstrace_obs::maybe_time;
use pstrace_rtl::{prnet_select, sigset_select, simulate, RandomStimulus, UsbDesign};
use pstrace_soc::{
    tracefile, wirecap, FlowKind, SimConfig, Simulator, SocModel, TraceBufferConfig, UsageScenario,
};
use pstrace_stream::scenario_by_number;

use crate::args::Args;
use crate::profile::{obs, Profiler};

type CmdResult = Result<(), Box<dyn Error>>;

/// Dispatches to a subcommand.
///
/// # Errors
///
/// Returns an error for unknown subcommands, bad arguments, or failures in
/// the underlying library calls.
pub fn dispatch(argv: &[String]) -> CmdResult {
    let (cmd, rest) = match argv.split_first() {
        None => {
            print_help();
            return Ok(());
        }
        Some((c, r)) => (c.as_str(), r),
    };
    match cmd {
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        "scenarios" => cmd_scenarios(),
        "select" => cmd_select(rest),
        "simulate" => cmd_simulate(rest),
        "debug" => cmd_debug(rest),
        "dot" => cmd_dot(rest),
        "usb" => cmd_usb(rest),
        "stats" => cmd_stats(),
        "select-file" => cmd_select_file(rest),
        "trace" => cmd_trace(rest),
        "serve" => cmd_serve(rest),
        "stop" => cmd_stop(rest),
        "recover" => cmd_recover(rest),
        "crash" => cmd_crash(rest),
        "stream" => cmd_stream(rest),
        "metrics" => cmd_metrics(rest),
        "events" => cmd_events(rest),
        "chaos" => cmd_chaos(rest),
        "fleet" => cmd_fleet(rest),
        "mine" => cmd_mine(rest),
        "vcd" => cmd_vcd(rest),
        other => Err(format!("unknown subcommand `{other}`").into()),
    }
}

fn print_help() {
    println!("pstrace — application-level trace message selection (DAC 2018)");
    println!();
    println!("subcommands:");
    println!("  scenarios                              list the modeled usage scenarios");
    println!("  select   --scenario N [--buffer BITS] [--no-packing]");
    println!("                                         run Steps 1-3 message selection");
    println!("  simulate --scenario N [--seed S] [--bug ID] [--trace]");
    println!("                                         run the SoC simulator");
    println!("  debug    --case N [--buffer BITS] [--depth D] [--no-packing]");
    println!("                                         run a debugging case study");
    println!("  debug    --flight DUMP.ptw             localize a flight-recorder dump's");
    println!("                                         sessions against the lifecycle flow");
    println!("  trace    encode FILE --out OUT.ptw [--scenario N] [--buffer BITS]");
    println!("           [--no-packing] [--depth D] [--profile v1|v2] [--sync-every N]");
    println!("                                         pack a text trace into .ptw frames");
    println!("                                         (v2 = compressed dialect)");
    println!("  trace    decode FILE [--out OUT.txt]");
    println!("                                         decode a .ptw stream back to text");
    println!("                                         (the dialect is auto-detected)");
    println!("  serve    [--addr HOST:PORT] [--shards N] [--sessions N]");
    println!("           [--max-sessions N] [--tenant-quota N]");
    println!("           [--metrics-addr HOST:PORT]");
    println!("           [--flight-recorder | --flight-dump FILE.ptw]");
    println!("           [--durability off|lazy|strict] [--wal-dir DIR] [--wal-budget B]");
    println!("                                         run the live trace ingest daemon");
    println!("                                         (the flight recorder spills its own");
    println!("                                         lifecycle journal as a .ptw v2 dump;");
    println!("                                         with a WAL dir, parked sessions");
    println!("                                         survive a daemon crash)");
    println!("  stop     [--addr HOST:PORT]            ask a daemon to drain and exit");
    println!("  recover  --wal-dir DIR [--shards N] [--dry-run]");
    println!("                                         replay a WAL directory read-only and");
    println!("                                         print what a restart would restore");
    println!("  crash    [--seed S] [--sessions N] [--records N] [--chunk B] [--shards N]");
    println!("           [--crash-point NAME|all] [--kill-after-ms T] [--wal-dir DIR]");
    println!("                                         kill-the-daemon recovery soak: SIGKILL");
    println!("                                         (or an armed WAL crash point) mid-soak,");
    println!("                                         restart, resume every session; fails on");
    println!("                                         a recovery breach");
    println!("  stream   FILE.ptw [--addr HOST:PORT] [--scenario N] [--mode M] [--chunk B]");
    println!("           [--retries N]                 replay a .ptw capture to a daemon");
    println!("                                         (--retries N > 0 opens a resumable");
    println!("                                         session that reconnects up to N times)");
    println!("  metrics  [--addr HOST:PORT] [--json]   fetch a daemon's Prometheus metrics");
    println!("                                         (--json re-renders the exposition as");
    println!("                                         machine-readable JSON)");
    println!("  events   DUMP.ptw [--chrome FILE]      render a flight-recorder dump as a");
    println!("                                         per-session causal timeline (--chrome");
    println!("                                         writes Chrome trace-event JSON)");
    println!("  chaos    [--seed S] [--sessions N] [--intensity quiet|light|standard|heavy]");
    println!("           [--records N] [--chunk B] [--shards N] [--concurrency N]");
    println!("           [--reconnect-faults] [--flight-dump FILE.ptw]");
    println!("                                         seeded fault-injection soak against a");
    println!("                                         live daemon; fails on survival breach");
    println!("  fleet    [--sessions N] [--concurrency N] [--shards N] [--records N]");
    println!("           [--json FILE] [--flight-dump FILE.ptw]");
    println!("                                         fleet-scale concurrent ingest soak;");
    println!("                                         prints aggregate records/s");
    println!("  mine     [FILES.ptw...] [--scenario N|all] [--seeds K]");
    println!("           [--min-support N] [--min-path-support N] [--top N]");
    println!("           [--out DIR] [--dot] [--eval] [--require N] [--threshold F]");
    println!("           [--flight]                    infer flow DAGs from decoded captures");
    println!("                                         (--flight mines flight-recorder dumps");
    println!("                                         against the session-lifecycle flow)");
    println!("  dot      (--scenario N | --flow ABBREV) [--interleaved]");
    println!("                                         export Graphviz");
    println!("  usb      [--budget N] [--cycles N] [--seed S]");
    println!("                                         USB baseline comparison");
    println!("  select-file FILE [--buffer BITS] [--instances N] [--no-packing]");
    println!("                                         select over flows parsed from FILE");
    println!("  stats                                  USB netlist structure report");
    println!("  vcd      [--cycles N] [--seed S] [--restored] [--out FILE]");
    println!("                                         dump a USB waveform as VCD");
    println!();
    println!("select, select-file, debug and mine also accept --profile (print a");
    println!("phase-timing table); those plus trace accept --profile-json FILE (write");
    println!("the span timeline as Chrome trace-event JSON). On trace encode,");
    println!("--profile instead picks the wire dialect: v1 (fixed-width frames) or");
    println!("v2 (delta/RLE-compressed sync blocks, cadence --sync-every N).");
}

fn flow_by_abbrev(
    model: &SocModel,
    abbrev: &str,
) -> Result<Arc<pstrace_flow::Flow>, Box<dyn Error>> {
    for kind in FlowKind::ALL {
        if kind.abbrev().eq_ignore_ascii_case(abbrev) {
            return Ok(Arc::clone(model.flow(kind)));
        }
    }
    Err(
        format!("no flow `{abbrev}`; use one of PIOR, PIOW, NCUU, NCUD, Mon, DMAR, DMAW, COH")
            .into(),
    )
}

fn cmd_scenarios() -> CmdResult {
    let model = SocModel::t2();
    let mut scenarios = UsageScenario::all_paper_scenarios();
    scenarios.push(UsageScenario::scenario_dma());
    scenarios.push(UsageScenario::scenario_coherence());
    for scenario in scenarios {
        let u = scenario.interleaving(&model)?;
        let flows: Vec<String> = scenario
            .flows()
            .iter()
            .map(|&(k, n)| {
                if n == 1 {
                    k.abbrev().to_owned()
                } else {
                    format!("{}x{n}", k.abbrev())
                }
            })
            .collect();
        println!(
            "{}  flows [{}]  {} states, {} edges, {} paths, {} causes",
            scenario.name(),
            flows.join(", "),
            u.state_count(),
            u.edge_count(),
            path_count(&u),
            scenario_causes(&model, &scenario).len(),
        );
    }
    Ok(())
}

fn cmd_select(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["no-packing", "profile"],
        &["scenario", "buffer", "profile-json"],
    )?;
    let profiler = Profiler::from_args(&args);
    let model = SocModel::t2();
    let scenario = scenario_by_number(args.option_or("scenario", 1u8)?)?;
    let buffer = TraceBufferSpec::new(args.option_or("buffer", 32u32)?)?;
    let mut config = SelectionConfig::new(buffer);
    config.packing = !args.flag("no-packing");

    let product = maybe_time(obs(&profiler), "interleave", || {
        scenario.interleaving(&model)
    })?;
    let report = Selector::new(&product, config).select_observed(obs(&profiler))?;
    let catalog = model.catalog();

    println!(
        "{} over {} ({} states)",
        buffer,
        scenario.name(),
        product.state_count()
    );
    println!("selected messages:");
    for &m in &report.chosen.messages {
        println!("  {:<14} {:>2} bits", catalog.name(m), catalog.width(m));
    }
    for &g in &report.packed_groups {
        println!(
            "  {:<14} {:>2} bits (packed subgroup)",
            catalog.group_qualified_name(g),
            catalog.group(g).width()
        );
    }
    println!("gain        : {:.4} nats", report.gain_packed);
    println!("utilization : {:.2} %", report.utilization() * 100.0);
    println!("coverage    : {:.2} %", report.coverage() * 100.0);
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

fn cmd_simulate(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["trace"],
        &["scenario", "seed", "bug", "save"],
    )?;
    let model = SocModel::t2();
    let scenario = scenario_by_number(args.option_or("scenario", 1u8)?)?;
    let seed = args.option_or("seed", 0xda_c2018u64)?;
    let sim = Simulator::new(&model, scenario.clone(), SimConfig::with_seed(seed));

    let outcome = match args.option_opt::<u32>("bug")? {
        None => sim.run(),
        Some(id) => {
            let catalog = bug_catalog(&model);
            let bug = catalog
                .iter()
                .find(|b| b.id == id)
                .ok_or_else(|| format!("no bug {id}; the catalog has 1-14"))?
                .clone();
            println!("injecting {bug}");
            sim.run_with(&mut BugInterceptor::new(&model, vec![bug]))
        }
    };

    println!(
        "{}: {} messages in {} cycles, status {:?}",
        scenario.name(),
        outcome.events.len(),
        outcome.cycles,
        outcome.status
    );
    if args.flag("trace") {
        let catalog = model.catalog();
        for e in &outcome.events {
            println!(
                "  @{:>5} {:<20} {} -> {}  value {:#x}",
                e.time,
                e.message.display(catalog).to_string(),
                e.src,
                e.dst,
                e.value
            );
        }
    }
    if let Some(path) = args.option("save") {
        let all = scenario.messages(&model);
        let captured = pstrace_soc::capture(
            &model,
            &outcome,
            &pstrace_soc::TraceBufferConfig::messages_only(&all),
        );
        std::fs::write(path, tracefile::write_trace(model.catalog(), &captured))?;
        println!("wrote {} records to {path}", captured.len());
    }
    Ok(())
}

fn cmd_debug(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["no-packing", "profile"],
        &["case", "buffer", "depth", "profile-json", "flight"],
    )?;
    if let Some(path) = args.option("flight") {
        return debug_flight(path);
    }
    let profiler = Profiler::from_args(&args);
    let model = SocModel::t2();
    let case_no = args.option_or("case", 1u8)?;
    let cases = case_studies();
    let case = cases
        .iter()
        .find(|c| c.number == case_no)
        .ok_or_else(|| format!("no case study {case_no}; use 1-5"))?;
    let depth = args.option_opt("depth")?;
    if depth == Some(0) {
        return Err("--depth must be at least 1 entry".into());
    }
    let config = CaseStudyConfig {
        buffer_bits: args.option_or("buffer", 32u32)?,
        packing: !args.flag("no-packing"),
        depth,
    };
    let report = run_case_study_observed(&model, case, config, case.seed, obs(&profiler))?;
    print!("{}", report.render(&model));
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

/// `debug --flight`: localizes every recorded session in a
/// flight-recorder dump against the built-in session-lifecycle flow —
/// the dogfood version of the paper's Table-3 question, asked of the
/// daemon's own trace.
fn debug_flight(path: &str) -> CmdResult {
    let dump = read_flight_dump(&std::fs::read(path)?)?;
    let catalog = flight_catalog();
    let flow = Arc::new(lifecycle_flow(&catalog));
    let lifecycle = lifecycle_messages(&catalog);
    let product = InterleavedFlow::build(&[IndexedFlow::new(flow, FlowIndex(1))])?;
    let sessions = dump.sessions();
    let recorded = sessions.iter().filter(|(i, _, _)| *i != 0).count();
    println!(
        "localizing {} recorded sessions against session-lifecycle ({} paths, {} events in dump)",
        recorded,
        path_count(&product),
        dump.events.len()
    );
    for (index, trace, events) in sessions {
        if index == 0 {
            continue;
        }
        // Only the lifecycle vocabulary participates; shed/damage/
        // degradation events in the same dump are context, not path
        // evidence.
        let observed: Vec<IndexedMessage> = events
            .iter()
            .filter_map(|e| {
                let mid = catalog.get(&flight_message_name(e.kind))?;
                lifecycle
                    .contains(&mid)
                    .then_some(IndexedMessage::new(mid, FlowIndex(1)))
            })
            .collect();
        let loc = pstrace_diag::localize(&product, &observed, &lifecycle, MatchMode::Prefix);
        println!(
            "  session {index} trace 0x{trace:016x}: {}/{} paths consistent ({:.0} % localized, {} lifecycle events)",
            loc.consistent,
            loc.total,
            loc.fraction() * 100.0,
            observed.len()
        );
    }
    Ok(())
}

fn cmd_dot(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["interleaved"],
        &["scenario", "flow"],
    )?;
    let model = SocModel::t2();
    if let Some(abbrev) = args.option("flow") {
        let flow = flow_by_abbrev(&model, abbrev)?;
        if args.flag("interleaved") {
            let u = InterleavedFlow::build(&[IndexedFlow::new(flow, FlowIndex(1))])?;
            print!("{}", dot::interleaved_to_dot(&u));
        } else {
            print!("{}", dot::flow_to_dot(&flow));
        }
        return Ok(());
    }
    let scenario = scenario_by_number(args.option_or("scenario", 1u8)?)?;
    let u = scenario.interleaving(&model)?;
    print!("{}", dot::interleaved_to_dot(&u));
    Ok(())
}

fn cmd_usb(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &[], &["budget", "cycles", "seed"])?;
    let budget = args.option_or("budget", 8usize)?;
    let cycles = args.option_or("cycles", 48usize)?;
    // Default matches the Table-4 reference stimulus (bench's
    // USB_STIMULUS_SEED), re-pinned with the internal RNG.
    let seed = args.option_or("seed", 11u64)?;

    let usb = UsbDesign::new();
    let flows = vec![
        IndexedFlow::new(Arc::clone(&usb.flows[0]), FlowIndex(1)),
        IndexedFlow::new(Arc::clone(&usb.flows[1]), FlowIndex(2)),
    ];
    let product = InterleavedFlow::build(&flows)?;
    let reference = simulate(
        &usb.netlist,
        &RandomStimulus::new(&usb.netlist, cycles, seed),
        cycles,
    );
    let sigset = sigset_select(&usb.netlist, &reference, budget);
    let prnet = prnet_select(&usb.netlist, budget);
    let info = Selector::new(
        &product,
        SelectionConfig::new(TraceBufferSpec::new(budget as u32)?),
    )
    .select()?;
    let info_signals = usb.signals_of_messages(&info.chosen.messages);

    println!(
        "{:<16} {:>7} {:>7} {:>9}",
        "signal", "SigSeT", "PRNet", "InfoGain"
    );
    for &s in &usb.interface_signals {
        let mark = |sel: &[pstrace_rtl::SignalId]| if sel.contains(&s) { "Y" } else { "-" };
        println!(
            "{:<16} {:>7} {:>7} {:>9}",
            usb.netlist.signal_name(s),
            mark(&sigset),
            mark(&prnet),
            mark(&info_signals)
        );
    }
    println!(
        "message reconstruction: SigSeT {:.1} %, InfoGain {:.1} %",
        usb.message_reconstruction(&sigset, &reference) * 100.0,
        usb.message_reconstruction(&info_signals, &reference) * 100.0
    );
    Ok(())
}

fn cmd_select_file(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["no-packing", "profile"],
        &["buffer", "instances", "profile-json"],
    )?;
    let profiler = Profiler::from_args(&args);
    let path = args
        .positional()
        .first()
        .ok_or("select-file needs a flow-specification file")?;
    let text = std::fs::read_to_string(path)?;
    let doc = pstrace_flow::parse::parse_flows(&text)?;
    if doc.flows.is_empty() {
        return Err("the document declares no flows".into());
    }
    let instances = args.option_or("instances", 1u32)?;
    let mut indexed = Vec::new();
    let mut next = 1u32;
    for flow in &doc.flows {
        for _ in 0..instances {
            indexed.push(IndexedFlow::new(Arc::clone(flow), FlowIndex(next)));
            next += 1;
        }
    }
    let product = maybe_time(obs(&profiler), "interleave", || {
        InterleavedFlow::build(&indexed)
    })?;
    let buffer = TraceBufferSpec::new(args.option_or("buffer", 32u32)?)?;
    let mut config = SelectionConfig::new(buffer);
    config.packing = !args.flag("no-packing");
    let report = Selector::new(&product, config).select_observed(obs(&profiler))?;

    println!(
        "{} flows x{} instances: {} states, {} edges",
        doc.flows.len(),
        instances,
        product.state_count(),
        product.edge_count()
    );
    println!("selected messages:");
    for &m in &report.chosen.messages {
        println!(
            "  {:<20} {:>2} bits",
            doc.catalog.name(m),
            doc.catalog.width(m)
        );
    }
    for &g in &report.packed_groups {
        println!(
            "  {:<20} {:>2} bits (packed subgroup)",
            doc.catalog.group_qualified_name(g),
            doc.catalog.group(g).width()
        );
    }
    println!("gain        : {:.4} nats", report.gain_packed);
    println!("utilization : {:.2} %", report.utilization() * 100.0);
    println!("coverage    : {:.2} %", report.coverage() * 100.0);
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

fn cmd_trace(argv: &[String]) -> CmdResult {
    match argv.split_first() {
        Some((sub, rest)) if sub == "encode" => cmd_trace_encode(rest),
        Some((sub, rest)) if sub == "decode" => cmd_trace_decode(rest),
        Some((other, _)) => {
            Err(format!("unknown trace subcommand `{other}`; use encode or decode").into())
        }
        None => Err("trace needs a subcommand: encode or decode".into()),
    }
}

/// Packs a text trace file into `.ptw` wire frames through the
/// scenario's selection-derived schema. Each record passes the capture
/// rule ([`TraceBufferConfig::admit`]): records outside the selection
/// are dropped (as the real buffer would drop them), full records of a
/// packed parent are truncated to the subgroup lane.
fn cmd_trace_encode(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["no-packing"],
        &[
            "scenario",
            "buffer",
            "depth",
            "out",
            "profile",
            "sync-every",
            "profile-json",
        ],
    )?;
    let profiler = Profiler::from_args(&args);
    let input = args
        .positional()
        .first()
        .ok_or("trace encode needs an input trace file")?;
    let out_path = args.option("out").ok_or("trace encode needs --out FILE")?;
    let depth: Option<usize> = args.option_opt("depth")?;
    if depth == Some(0) {
        return Err("--depth must be at least 1 entry".into());
    }
    let v2 = match args.option("profile").unwrap_or("v1") {
        "v1" => false,
        "v2" => true,
        other => return Err(format!("unknown wire profile `{other}`; use v1 or v2").into()),
    };
    let sync_every: u16 = args.option_or("sync-every", pstrace_codec::DEFAULT_SYNC_EVERY)?;
    let (sync_lo, sync_hi) = wirecap::SYNC_EVERY_RANGE;
    if !(sync_lo..=sync_hi).contains(&sync_every) {
        return Err(format!("--sync-every must be in {sync_lo}..={sync_hi} records").into());
    }

    let model = SocModel::t2();
    let trace = maybe_time(obs(&profiler), "read-trace", || {
        tracefile::read_trace(&model, &std::fs::read_to_string(input)?)
            .map_err(Box::<dyn Error>::from)
    })?;

    let scenario = scenario_by_number(args.option_or("scenario", 1u8)?)?;
    let buffer = TraceBufferSpec::new(args.option_or("buffer", 32u32)?)?;
    let mut sel_config = SelectionConfig::new(buffer);
    sel_config.packing = !args.flag("no-packing");
    let product = maybe_time(obs(&profiler), "interleave", || {
        scenario.interleaving(&model)
    })?;
    let selection = Selector::new(&product, sel_config).select_observed(obs(&profiler))?;
    let trace_config = TraceBufferConfig::from_selection(&selection, depth);
    let schema = maybe_time(obs(&profiler), "wire-schema", || {
        wirecap::wire_schema(&model, &trace_config, buffer.width_bits())
    })?;

    let records: Vec<wirecap::WireRecord> = trace
        .records()
        .iter()
        .filter_map(|&r| trace_config.admit(model.catalog(), r))
        .collect();
    let dropped = trace.len() - records.len();
    let profile = pstrace_codec::profile_for(if v2 {
        wirecap::PtwMeta::v2(sync_every)
    } else {
        wirecap::PtwMeta::v1()
    });
    let (file, summary) = maybe_time(obs(&profiler), "encode-frames", || {
        let stream = profile.encode(&schema, &records, depth)?;
        let overwritten = wirecap::overwritten(records.len(), depth);
        let summary = if v2 {
            format!(
                "encoded {} records into {} v2 sync blocks every {sync_every} records \
                 ({dropped} records dropped by the selection, {overwritten} lost to wraparound)",
                records.len() - overwritten,
                stream.frames,
            )
        } else {
            format!(
                "encoded {} frames of {} bits ({dropped} records dropped by the selection, \
                 {overwritten} lost to wraparound)",
                stream.frames,
                schema.frame_bits(),
            )
        };
        let file = wirecap::write_ptw_with(model.catalog(), &schema, profile.meta(), &stream);
        Ok::<_, Box<dyn Error>>((file, summary))
    })?;
    maybe_time(obs(&profiler), "write-ptw", || {
        std::fs::write(out_path, file)
    })?;
    println!("{summary}");
    println!(
        "occupancy {} of {} body bits ({:.2} % utilization) -> {out_path}",
        schema.occupied_bits(),
        schema.body_width(),
        schema.utilization() * 100.0
    );
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

/// Decodes a `.ptw` stream back into the text trace format, reporting
/// damaged frames and the measured buffer utilization.
fn cmd_trace_decode(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &["profile"], &["out", "profile-json"])?;
    let profiler = Profiler::from_args(&args);
    let input = args
        .positional()
        .first()
        .ok_or("trace decode needs an input .ptw file")?;
    let model = SocModel::t2();
    let bytes = std::fs::read(input)?;
    let parsed = maybe_time(obs(&profiler), "read-ptw", || {
        wirecap::read_ptw_any(model.catalog(), &bytes)
    });
    let (schema, meta, stream) = match parsed {
        Ok(parts) => parts,
        // Not the SoC catalog's vocabulary — maybe the daemon's own
        // flight-recorder dump, which decodes against the built-in
        // flight catalog every binary can rebuild.
        Err(model_err) => return decode_flight(&bytes, &args, model_err),
    };
    let (trace, report) = maybe_time(obs(&profiler), "decode", || {
        let profile = pstrace_codec::profile_for(meta);
        wirecap::decode_capture(&schema, &stream.bytes, Some(stream.bit_len), &*profile)
    });
    println!(
        "decoded {} v{} frames: {} records, {} idle, {} damaged ({:.2} % measured utilization)",
        report.frames,
        meta.version,
        trace.len(),
        report.idle_frames,
        report.damaged.len(),
        report.utilization() * 100.0
    );
    for d in &report.damaged {
        println!("  damaged frame {}: {}", d.frame, d.reason);
    }
    if !report.tail_clean {
        println!(
            "  {} dirty trailing bits past the last frame (truncated stream?)",
            report.trailing_bits
        );
    }
    let text = maybe_time(obs(&profiler), "render-text", || {
        tracefile::write_trace(model.catalog(), &trace)
    });
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!("wrote {} records to {path}", trace.len());
        }
        None => print!("{text}"),
    }
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

/// `trace decode` fallback for flight-recorder dumps: renders the
/// daemon's self-trace through the stock text-trace writer over the
/// flight catalog. When the bytes are neither dialect, the original
/// (SoC-catalog) error is reported.
fn decode_flight(bytes: &[u8], args: &Args, model_err: wirecap::WireError) -> CmdResult {
    let Ok(dump) = read_flight_dump(bytes) else {
        return Err(model_err.into());
    };
    println!(
        "decoded {} v2 frames: {} records, {} damaged (flight-recorder dialect)",
        dump.frames,
        dump.records.len(),
        dump.damaged
    );
    let trace = pstrace_soc::CapturedTrace::from_records(dump.records);
    let text = tracefile::write_trace(&flight_catalog(), &trace);
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, text)?;
            println!("wrote {} records to {path}", trace.len());
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Runs the live trace ingest daemon (`pstraced` forwards here).
///
/// `--sessions N` exits after N sessions have completed or failed
/// (0 = bind, print the address, shut straight down — a smoke check);
/// without it the daemon serves until a client's SHUTDOWN verb
/// (`pstrace stop`) asks it to drain. Either way the exit path is the
/// same: drain every shard, print the summary exactly once, join every
/// thread — nothing is leaked, with or without a session limit.
fn cmd_serve(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["flight-recorder"],
        &[
            "addr",
            "shards",
            "sessions",
            "max-sessions",
            "tenant-quota",
            "metrics-addr",
            "flight-dump",
            "durability",
            "wal-dir",
            "wal-budget",
        ],
    )?;
    let shards = args.option_or("shards", 2usize)?;
    // `--flight-dump PATH` names the spill file; bare `--flight-recorder`
    // takes the conventional name. The in-memory journal itself is
    // always on — these only decide whether (and where) it spills.
    let flight_dump = match args.option("flight-dump") {
        Some(path) => Some(std::path::PathBuf::from(path)),
        None if args.flag("flight-recorder") => Some(std::path::PathBuf::from("flight.ptw")),
        None => None,
    };
    // Durability: `--wal-dir` names the journal directory; `--durability`
    // picks the fsync policy (default `strict` once a dir is given, so a
    // bare `--wal-dir` is crash-safe out of the box).
    let wal_dir = args.option("wal-dir").map(std::path::PathBuf::from);
    let durability = match args.option("durability") {
        Some(name) => pstrace_stream::durable::DurabilityPolicy::from_name(name)?,
        None if wal_dir.is_some() => pstrace_stream::durable::DurabilityPolicy::Strict,
        None => pstrace_stream::durable::DurabilityPolicy::Off,
    };
    if durability != pstrace_stream::durable::DurabilityPolicy::Off && wal_dir.is_none() {
        return Err("--durability lazy|strict needs --wal-dir DIR".into());
    }
    let config = pstrace_stream::ServerConfig {
        addr: args.option("addr").unwrap_or("127.0.0.1:7455").to_owned(),
        shards,
        max_sessions: args.option_opt("max-sessions")?,
        tenant_quota: args.option_opt("tenant-quota")?,
        flight_dump: flight_dump.clone(),
        durability,
        wal_dir: wal_dir.clone(),
        wal_budget: args.option_or("wal-budget", pstrace_stream::DEFAULT_WAL_BUDGET)?,
        ..pstrace_stream::ServerConfig::default()
    };
    let sessions: Option<u64> = args.option_opt("sessions")?;
    let model = Arc::new(SocModel::t2());
    let server = pstrace_stream::Server::spawn(model, &config)?;
    println!(
        "serving on {} ({} shards)",
        server.local_addr(),
        shards.max(1)
    );
    if let Some(path) = &flight_dump {
        println!("flight recorder spilling to {}", path.display());
    }
    if let Some(dir) = &wal_dir {
        let snap = server.snapshot();
        println!(
            "durability {} on {} (epoch {:#018x}, {} sessions recovered)",
            durability.name(),
            dir.display(),
            server.epoch(),
            snap.recovered,
        );
    }
    let endpoint = match args.option("metrics-addr") {
        Some(addr) => {
            let endpoint =
                pstrace_stream::MetricsEndpoint::spawn_merged(addr, server.registries())?;
            println!("metrics on http://{}/metrics", endpoint.local_addr());
            Some(endpoint)
        }
        None => None,
    };
    server.wait(sessions);
    if let Some(endpoint) = endpoint {
        endpoint.shutdown();
    }
    // Drain first, then report: the post-drain snapshot is final.
    print_server_summary(&server.shutdown());
    Ok(())
}

/// Asks a running daemon to drain and exit via the PSTS `SHUTDOWN`
/// verb, printing the daemon's acknowledgement.
fn cmd_stop(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &[], &["addr"])?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7455");
    let ack = pstrace_stream::send_request(addr, &pstrace_stream::proto::Request::Shutdown)?;
    println!("{ack}");
    Ok(())
}

/// Replays a WAL directory read-only and prints what a restarting
/// daemon would restore: the recovery epoch, entries replayed and
/// skipped, every resumable session, and any damage sites. `--dry-run`
/// is accepted for symmetry with other tools — inspection never writes.
fn cmd_recover(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &["dry-run"], &["wal-dir", "shards"])?;
    let dir = std::path::PathBuf::from(args.option("wal-dir").ok_or("recover needs --wal-dir")?);
    if !dir.is_dir() {
        return Err(format!("--wal-dir {} is not a directory", dir.display()).into());
    }
    let shards = args.option_or("shards", 2usize)?;
    let state = pstrace_stream::Server::recover(&dir, shards);
    print!("{}", pstrace_stream::durable::render_dry_run(&dir, &state));
    Ok(())
}

/// Runs the kill-the-daemon recovery soak: a child `pstrace serve
/// --durability strict` destroyed mid-soak (SIGKILL, or an armed WAL
/// crash point), restarted on the same WAL directory, every session
/// resumed across the crash, then a clean probe checked against the
/// batch pipeline. `--crash-point all` iterates every compiled-in crash
/// point plus the plain SIGKILL run. Exits nonzero on a recovery breach.
fn cmd_crash(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &[],
        &[
            "seed",
            "sessions",
            "records",
            "chunk",
            "shards",
            "crash-point",
            "kill-after-ms",
            "wal-dir",
        ],
    )?;
    let exe = std::env::current_exe()?;
    let daemon = vec![exe.to_string_lossy().into_owned(), "serve".to_owned()];
    let wal_root = match args.option("wal-dir") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::env::temp_dir().join(format!("pstrace-crash-{}", std::process::id())),
    };
    let points: Vec<Option<String>> = match args.option("crash-point") {
        None => vec![None],
        Some("all") => {
            let mut all = vec![None];
            all.extend(
                pstrace_stream::durable::CRASH_POINTS
                    .iter()
                    .map(|p| Some((*p).to_owned())),
            );
            all
        }
        Some(point) => {
            if !pstrace_stream::durable::CRASH_POINTS.contains(&point) {
                return Err(format!(
                    "unknown crash point `{point}`; compiled-in points: {}",
                    pstrace_stream::durable::CRASH_POINTS.join(", ")
                )
                .into());
            }
            vec![Some(point.to_owned())]
        }
    };

    let guard = pstrace_faults::watchdog(std::time::Duration::from_secs(600), "pstrace crash");
    let mut failures = Vec::new();
    for (i, point) in points.iter().enumerate() {
        // Each run gets a fresh WAL lineage: recovery must come from the
        // crash under test, never from a previous run's journal.
        let mut config =
            pstrace_faults::CrashSoakConfig::new(daemon.clone(), wal_root.join(format!("run-{i}")));
        config.seed = args.option_or("seed", 0xc_4a54_u64)?;
        config.sessions = args.option_or("sessions", config.sessions)?;
        config.records = args.option_or("records", config.records)?;
        config.chunk_bytes = args.option_or("chunk", config.chunk_bytes)?;
        config.shards = args.option_or("shards", config.shards)?;
        config.kill_after =
            std::time::Duration::from_millis(args.option_or("kill-after-ms", 300u64)?);
        config.crash_point = point.clone();
        let report = pstrace_faults::run_crash_soak(&config)?;
        print!("{}", report.render());
        if let Err(v) = report.survival() {
            failures.push(format!("{}: {v}", point.as_deref().unwrap_or("sigkill")));
        }
        std::fs::remove_dir_all(&config.wal_dir).ok();
    }
    drop(guard);
    if !failures.is_empty() {
        return Err(format!(
            "crash soak failed the recovery criteria:\n{}",
            failures.join("\n")
        )
        .into());
    }
    Ok(())
}

/// One shutdown summary line shared by `serve` and in-process `stream`.
fn print_server_summary(snap: &pstrace_stream::StatsSnapshot) {
    println!(
        "served {} sessions ({} failed): {} bytes, {} frames, {} records, {} damaged",
        snap.sessions, snap.failed, snap.bytes, snap.frames, snap.records, snap.damaged_frames,
    );
}

/// Replays a `.ptw` capture to an ingest daemon and prints the server's
/// session report. Without `--addr`, a private in-process daemon is
/// spun up on loopback for the replay — the full TCP path, no external
/// process needed.
fn cmd_stream(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &[],
        &["addr", "scenario", "mode", "chunk", "retries"],
    )?;
    let input = args
        .positional()
        .first()
        .ok_or("stream needs an input .ptw file")?;
    let ptw = std::fs::read(input)?;
    let scenario = args.option_or("scenario", 1u8)?;
    let mode = pstrace_stream::proto::mode_from_name(args.option("mode").unwrap_or("prefix"))?;
    let plan = pstrace_stream::Replay {
        chunk_bytes: args.option_or("chunk", pstrace_stream::DEFAULT_CHUNK_BYTES)?,
        policy: pstrace_stream::RetryPolicy {
            max_reconnects: args.option_or("retries", 0)?,
            ..pstrace_stream::RetryPolicy::default()
        },
        ..pstrace_stream::Replay::new(scenario, mode)
    };
    let model = SocModel::t2();
    // `--retries N` allows N reconnects, each resuming at the server's
    // acked byte offset; without it the session is plain and one-shot.
    let replay = |addr: &str| {
        let connect = |_| pstrace_stream::connect(addr, &plan.policy);
        pstrace_stream::replay(connect, model.catalog(), &ptw, &plan)
    };

    match args.option("addr") {
        Some(addr) => print!("{}", replay(addr)?),
        None => {
            let server = pstrace_stream::Server::spawn(
                Arc::new(SocModel::t2()),
                &pstrace_stream::ServerConfig::default(),
            )?;
            let report = replay(&server.local_addr().to_string());
            let snap = server.snapshot();
            server.shutdown();
            print!("{}", report?);
            // The private daemon served exactly this replay: its final
            // counters are part of the result, not hidden state.
            print_server_summary(&snap);
        }
    }
    Ok(())
}

/// Fetches a running daemon's Prometheus text exposition over the PSTS
/// `METRICS` verb and prints it verbatim.
fn cmd_metrics(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &["json"], &["addr"])?;
    let addr = args.option("addr").unwrap_or("127.0.0.1:7455");
    let exposition = pstrace_stream::send_request(addr, &pstrace_stream::proto::Request::Metrics)?;
    if args.flag("json") {
        let json = pstrace_obs::prometheus_to_json(&exposition)
            .map_err(|e| format!("metrics exposition did not parse: {e}"))?;
        println!("{json}");
    } else {
        print!("{exposition}");
    }
    Ok(())
}

/// Renders a flight-recorder dump as the per-session causal timeline;
/// `--chrome FILE` additionally writes Chrome trace-event JSON for
/// `chrome://tracing` / Perfetto.
fn cmd_events(argv: &[String]) -> CmdResult {
    let args = Args::parse(argv.iter().cloned(), &[], &["chrome"])?;
    let input = args
        .positional()
        .first()
        .ok_or("events needs a flight-recorder .ptw dump")?;
    let dump = read_flight_dump(&std::fs::read(input)?)?;
    print!("{}", render_timeline(&dump));
    if let Some(path) = args.option("chrome") {
        std::fs::write(path, render_chrome(&dump))?;
        println!("wrote Chrome trace JSON to {path}");
    }
    Ok(())
}

/// Runs a seeded fault-injection soak against a private in-process
/// daemon and prints the survival report (fault ledger, daemon counters,
/// degradation paths, clean-probe verdict).
///
/// By default reconnect-path transport faults (dropped writes,
/// disconnects) are disabled so the printed fault-ledger fingerprint is
/// a pure function of `--seed`; `--reconnect-faults` turns them back on
/// to exercise the park/resume path. Exits nonzero when the survival
/// criteria are breached (a worker panic escaped, or the post-storm
/// clean probe failed or diverged from the batch pipeline).
fn cmd_chaos(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["reconnect-faults"],
        &[
            "seed",
            "sessions",
            "intensity",
            "records",
            "chunk",
            "shards",
            "concurrency",
            "flight-dump",
        ],
    )?;
    let seed = args.option_or("seed", 0xda_c2018u64)?;
    let intensity = args.option("intensity").unwrap_or("standard");
    let mut plan = pstrace_faults::FaultPlan::by_intensity(intensity, seed)?;
    if !args.flag("reconnect-faults") {
        plan = plan.without_reconnect_faults();
    }
    let mut config = pstrace_faults::SoakConfig::new(plan);
    config.sessions = args.option_or("sessions", config.sessions)?;
    config.records = args.option_or("records", config.records)?;
    config.chunk_bytes = args.option_or("chunk", config.chunk_bytes)?;
    config.shards = args.option_or("shards", config.shards)?;
    config.concurrency = args.option_or("concurrency", config.concurrency)?;
    config.flight_dump = args.option("flight-dump").map(std::path::PathBuf::from);

    let report = pstrace_faults::run_soak(&config)?;
    print!("{}", report.render());
    if let Some(path) = &config.flight_dump {
        println!("wrote flight-recorder dump to {}", path.display());
    }
    report
        .survival()
        .map_err(|v| format!("chaos soak failed the survival criteria:\n{v}"))?;
    Ok(())
}

/// Fleet-scale ingest measurement: a seeded soak fanned out over many
/// concurrent client threads against a sharded daemon, reported as
/// aggregate records/s. `--json FILE` additionally writes the numbers
/// in the shape `scripts/check_bench.py` compares against
/// `BENCH_fleet.json`. Exits nonzero on a survival breach, exactly like
/// `chaos`.
fn cmd_fleet(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &[],
        &[
            "seed",
            "sessions",
            "intensity",
            "records",
            "chunk",
            "shards",
            "concurrency",
            "json",
            "flight-dump",
        ],
    )?;
    let seed = args.option_or("seed", 0xf1ee7u64)?;
    let intensity = args.option("intensity").unwrap_or("quiet");
    let plan = pstrace_faults::FaultPlan::by_intensity(intensity, seed)?.without_reconnect_faults();
    let mut config = pstrace_faults::SoakConfig::new(plan);
    config.sessions = args.option_or("sessions", 256usize)?;
    config.records = args.option_or("records", 200usize)?;
    config.chunk_bytes = args.option_or("chunk", 1024usize)?;
    config.shards = args.option_or("shards", 4usize)?;
    config.concurrency = args.option_or("concurrency", 64usize)?;
    config.flight_dump = args.option("flight-dump").map(std::path::PathBuf::from);

    // A wedged fleet soak should name itself and die fast, not hang the
    // terminal (or a CI job) until an external timeout fires.
    let guard = pstrace_faults::watchdog(std::time::Duration::from_secs(600), "pstrace fleet");
    let report = pstrace_faults::run_soak(&config)?;
    drop(guard);
    print!("{}", report.render());
    if let Some(path) = &config.flight_dump {
        println!("wrote flight-recorder dump to {}", path.display());
    }

    if let Some(path) = args.option("json") {
        let json = format!(
            "{{\"bench\":\"fleet_ingest\",\"sessions\":{},\"concurrency\":{},\"shards\":{},\
             \"records_per_session\":{},\"records_total\":{},\"elapsed_sec\":{:.6},\
             \"records_per_sec\":{:.2}}}\n",
            report.sessions,
            report.concurrency,
            report.shards,
            config.records,
            report.completed * config.records,
            report.elapsed.as_secs_f64(),
            report.records_per_sec,
        );
        std::fs::write(path, json)?;
        println!("wrote {path}");
    }
    report
        .survival()
        .map_err(|v| format!("fleet soak failed the survival criteria:\n{v}"))?;
    Ok(())
}

/// Infers candidate flow DAGs from decoded captures.
///
/// Input is either one or more `.ptw` files (positional) or simulated
/// scenario corpora (`--scenario N|all`, `--seeds K`, each run through a
/// wire round trip). Candidates are ranked by acceptance × minimality;
/// `--out DIR` writes parseable `.flow` specs (plus annotated `.dot`
/// graphs with `--dot`), and `--eval` scores the candidates against the
/// model's ground-truth flows, printing the recovery verdict line that CI
/// asserts. `--require N` exits nonzero when fewer than N ground truths
/// are recovered.
fn cmd_mine(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["dot", "eval", "profile", "flight"],
        &[
            "scenario",
            "seeds",
            "min-support",
            "min-path-support",
            "top",
            "out",
            "require",
            "threshold",
            "profile-json",
        ],
    )?;
    let profiler = Profiler::from_args(&args);
    let model = SocModel::t2();
    let config = MiningConfig {
        min_support: args.option_or("min-support", 2u64)?,
        min_path_support: args.option_or("min-path-support", 1u64)?,
        max_candidates: args.option_or("top", 32usize)?,
        ..MiningConfig::default()
    };
    // `--flight` swaps the whole vocabulary: the built-in flight catalog
    // instead of the SoC's, dumps instead of captures, and the
    // session-lifecycle flow as the sole ground truth.
    let flight = args.flag("flight");
    let catalog = if flight {
        flight_catalog()
    } else {
        Arc::clone(model.catalog())
    };
    let mut miner = Miner::new(Arc::clone(&catalog), config);

    // Load the corpus, remembering which flows count as ground truth.
    let mut truth_kinds: Vec<FlowKind> = Vec::new();
    if flight {
        if args.positional().is_empty() {
            return Err("mine --flight needs one or more flight-recorder dumps".into());
        }
        let lifecycle = lifecycle_messages(&catalog);
        for path in args.positional() {
            let bytes = std::fs::read(path)?;
            let dump = read_flight_dump(&bytes).map_err(|e| format!("{path}: {e}"))?;
            let log = ExecutionLog::from_records(&dump.records).retain_messages(&lifecycle);
            println!(
                "loaded {path}: {} lifecycle records of {} events",
                log.len(),
                dump.records.len()
            );
            miner.push_log(log);
        }
    } else if args.positional().is_empty() {
        let scenarios: Vec<UsageScenario> = match args.option("scenario") {
            None | Some("all") => {
                let mut v = Vec::new();
                for n in 1..=5 {
                    v.push(scenario_by_number(n)?);
                }
                v
            }
            Some(s) => {
                let n: u8 = s.parse().map_err(|_| format!("bad scenario `{s}`"))?;
                vec![scenario_by_number(n)?]
            }
        };
        let seeds = pstrace_mine::default_seeds(args.option_or("seeds", 8u64)?);
        maybe_time(obs(&profiler), "corpus", || -> CmdResult {
            for sc in &scenarios {
                let (logs, _skipped) = pstrace_mine::scenario_executions(&model, sc, &seeds)?;
                for log in logs {
                    miner.push_log(log);
                }
                for &(kind, _) in sc.flows() {
                    if !truth_kinds.contains(&kind) {
                        truth_kinds.push(kind);
                    }
                }
            }
            Ok(())
        })?;
    } else {
        for path in args.positional() {
            let bytes = std::fs::read(path)?;
            let added = miner.push_ptw(&bytes).map_err(|e| format!("{path}: {e}"))?;
            println!("loaded {path}: {added} records");
        }
        truth_kinds = FlowKind::ALL.to_vec();
    }

    let report = miner.mine_observed(obs(&profiler));
    println!(
        "mined {} candidates from {} executions ({} records, {} sequences, {} clusters, {} dropped, {} skipped frames)",
        report.candidates.len(),
        report.stats.executions,
        report.stats.records,
        report.stats.sequences,
        report.stats.clusters,
        report.stats.clusters_dropped,
        report.stats.skipped_frames,
    );
    println!(
        "{:<24} {:>6} {:>6} {:>8} {:>7} {:>6} {:>6} {:>4} {:>5}",
        "candidate", "states", "edges", "support", "accept", "score", "trunc", "inv", "mutex"
    );
    for c in &report.candidates {
        let conflicts: u64 = c.atomic_checks.iter().map(|a| a.conflicts).sum();
        println!(
            "{:<24} {:>6} {:>6} {:>8} {:>7.3} {:>6.3} {:>6} {:>4} {:>5}",
            c.flow.name(),
            c.flow.state_count(),
            c.flow.edge_count(),
            c.support,
            c.acceptance,
            c.score,
            c.truncated,
            c.invariant_violations,
            conflicts,
        );
    }

    let render_dot = |c: &pstrace_mine::CandidateFlow| {
        dot::flow_to_dot_with(&c.flow, |i, _| Some(c.edge_label(i)))
    };
    if let Some(dir) = args.option("out") {
        std::fs::create_dir_all(dir)?;
        for c in &report.candidates {
            let base = std::path::Path::new(dir).join(c.flow.name());
            std::fs::write(base.with_extension("flow"), c.flow.dsl().to_string())?;
            if args.flag("dot") {
                std::fs::write(base.with_extension("dot"), render_dot(c))?;
            }
        }
        println!("wrote {} flow specs to {dir}", report.candidates.len());
    } else if args.flag("dot") {
        for c in &report.candidates {
            print!("{}", render_dot(c));
        }
    }

    if args.flag("eval") || args.option("require").is_some() {
        let threshold = args.option_or("threshold", 0.9f64)?;
        let flight_truth = flight.then(|| lifecycle_flow(&catalog));
        let truths: Vec<&pstrace_flow::Flow> = match &flight_truth {
            Some(f) => vec![f],
            None => truth_kinds
                .iter()
                .map(|&k| model.flow(k).as_ref())
                .collect(),
        };
        let eval = maybe_time(obs(&profiler), "evaluate", || {
            evaluate(&report.candidates, &truths, threshold)
        });
        for m in &eval.matches {
            println!(
                "  {:<28} -> {:<24} nodes P={:.2} R={:.2}  edges P={:.2} R={:.2}  {}",
                m.truth,
                m.candidate.as_deref().unwrap_or("(none)"),
                m.score.nodes.precision,
                m.score.nodes.recall,
                m.score.edges.precision,
                m.score.edges.recall,
                if m.recovered { "recovered" } else { "missed" },
            );
        }
        println!("{}", eval.verdict_line());
        if let Some(require) = args.option_opt::<usize>("require")? {
            if eval.recovered < require {
                return Err(format!(
                    "mine recovery {}/{} below required {require}",
                    eval.recovered, eval.total
                )
                .into());
            }
        }
    }
    if let Some(p) = &profiler {
        p.finish()?;
    }
    Ok(())
}

fn cmd_stats() -> CmdResult {
    let usb = UsbDesign::new();
    let stats = pstrace_rtl::netlist_stats(&usb.netlist);
    println!("usb netlist `{}`", usb.netlist.name());
    println!("  signals        : {}", stats.signals);
    println!("  primary inputs : {}", stats.inputs);
    println!("  flip-flops     : {}", stats.flops);
    let mut kinds: Vec<_> = stats.gates.iter().collect();
    kinds.sort();
    for (kind, count) in kinds {
        println!("  {kind:<15}: {count}");
    }
    println!("  max cone depth : {}", stats.max_cone_depth);
    println!("  max fanout     : {}", stats.max_fanout);
    println!("fanout hubs:");
    for (s, fanout) in pstrace_rtl::fanout_hubs(&usb.netlist, 5) {
        println!("  {:<16} {}", usb.netlist.signal_name(s), fanout);
    }
    Ok(())
}

fn cmd_vcd(argv: &[String]) -> CmdResult {
    let args = Args::parse(
        argv.iter().cloned(),
        &["restored"],
        &["cycles", "seed", "out"],
    )?;
    let cycles = args.option_or("cycles", 32usize)?;
    let seed = args.option_or("seed", 1u64)?;
    let usb = UsbDesign::new();
    let reference = simulate(
        &usb.netlist,
        &RandomStimulus::new(&usb.netlist, cycles, seed),
        cycles,
    );
    let wave = if args.flag("restored") {
        // Show what an SRR-selected trace actually reveals.
        let traced = sigset_select(&usb.netlist, &reference, 8);
        pstrace_rtl::restore(&usb.netlist, &traced, &reference)
    } else {
        reference
    };
    let vcd = pstrace_rtl::vcd::to_vcd(&usb.netlist, &wave);
    match args.option("out") {
        Some(path) => {
            std::fs::write(path, vcd)?;
            println!("wrote {path}");
        }
        None => print!("{vcd}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn help_and_scenarios_run() {
        assert!(dispatch(&argv(&["help"])).is_ok());
        assert!(dispatch(&argv(&[])).is_ok());
        assert!(dispatch(&argv(&["scenarios"])).is_ok());
    }

    #[test]
    fn unknown_subcommand_errors() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
    }

    #[test]
    fn select_runs_for_every_scenario() {
        for n in 1..=5 {
            let a = argv(&["select", "--scenario", &n.to_string(), "--buffer", "24"]);
            assert!(dispatch(&a).is_ok(), "scenario {n}");
        }
        assert!(dispatch(&argv(&["select", "--scenario", "9"])).is_err());
        assert!(dispatch(&argv(&["select", "--no-packing"])).is_ok());
    }

    #[test]
    fn select_rejects_the_removed_search_options() {
        for removed in ["--beam", "--threads"] {
            let a = argv(&["select", "--scenario", "1", removed, "4"]);
            assert!(dispatch(&a).is_err(), "select {removed}");
        }
    }

    #[test]
    fn simulate_golden_and_buggy() {
        assert!(dispatch(&argv(&["simulate", "--scenario", "1", "--seed", "7"])).is_ok());
        assert!(dispatch(&argv(&["simulate", "--bug", "5"])).is_ok());
        assert!(dispatch(&argv(&["simulate", "--bug", "99"])).is_err());
        assert!(dispatch(&argv(&["simulate", "--trace"])).is_ok());
        let tmp = std::env::temp_dir().join("pstrace_cli_trace.txt");
        let path = tmp.to_string_lossy().to_string();
        assert!(dispatch(&argv(&["simulate", "--save", &path])).is_ok());
        let model = SocModel::t2();
        let text = std::fs::read_to_string(&tmp).unwrap();
        let trace = pstrace_soc::tracefile::read_trace(&model, &text).unwrap();
        assert_eq!(trace.len(), 12, "scenario 1 emits 12 messages");
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn debug_runs_case_studies() {
        assert!(dispatch(&argv(&["debug", "--case", "1"])).is_ok());
        assert!(dispatch(&argv(&["debug", "--case", "3", "--depth", "4"])).is_ok());
        assert!(dispatch(&argv(&["debug", "--case", "9"])).is_err());
        assert!(
            dispatch(&argv(&["debug", "--case", "2", "--wire"])).is_err(),
            "debug --wire is gone: every case study goes through the wire"
        );
        assert!(
            dispatch(&argv(&["debug", "--case", "1", "--depth", "0"])).is_err(),
            "zero depth must be rejected before capture"
        );
    }

    #[test]
    fn mine_recovers_and_evaluates_scenarios() {
        // Coherence scenario: COH + NCUD, both recoverable with a few
        // seeds. --require makes the exit status the assertion.
        assert!(dispatch(&argv(&[
            "mine",
            "--scenario",
            "5",
            "--seeds",
            "6",
            "--eval",
            "--require",
            "2"
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["mine", "--scenario", "9"])).is_err());
        assert!(
            dispatch(&argv(&[
                "mine",
                "--scenario",
                "1",
                "--seeds",
                "2",
                "--require",
                "99"
            ]))
            .is_err(),
            "--require above recoverable count must fail"
        );
    }

    #[test]
    fn mine_writes_parseable_flow_specs() {
        let dir = std::env::temp_dir().join("pstrace_cli_mine");
        let dir_s = dir.to_string_lossy().to_string();
        assert!(dispatch(&argv(&[
            "mine",
            "--scenario",
            "1",
            "--seeds",
            "2",
            "--out",
            &dir_s,
            "--dot"
        ]))
        .is_ok());
        let spec = dir.join("mined-piorreq.flow");
        assert!(spec.exists(), "mined PIO-read spec missing");
        assert!(dir.join("mined-piorreq.dot").exists());
        let dot_text = std::fs::read_to_string(dir.join("mined-piorreq.dot")).unwrap();
        assert!(
            dot_text.contains("piorreq\\n×"),
            "DOT edges must carry support annotations"
        );
        // The emitted spec is directly consumable by `select-file`.
        assert!(dispatch(&argv(&[
            "select-file",
            &spec.to_string_lossy(),
            "--buffer",
            "16"
        ]))
        .is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_encode_decode_round_trips() {
        let dir = std::env::temp_dir();
        let txt = dir.join("pstrace_cli_wire.txt");
        let ptw = dir.join("pstrace_cli_wire.ptw");
        let back = dir.join("pstrace_cli_wire_back.txt");
        let txt_s = txt.to_string_lossy().to_string();
        let ptw_s = ptw.to_string_lossy().to_string();
        let back_s = back.to_string_lossy().to_string();

        assert!(dispatch(&argv(&["simulate", "--scenario", "1", "--save", &txt_s])).is_ok());
        assert!(dispatch(&argv(&[
            "trace",
            "encode",
            &txt_s,
            "--out",
            &ptw_s,
            "--scenario",
            "1"
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["trace", "decode", &ptw_s, "--out", &back_s])).is_ok());
        assert!(
            dispatch(&argv(&["trace", "decode", &ptw_s, "--threads", "2"])).is_err(),
            "decode has one path and no --threads"
        );

        // The decoded records are exactly the input records the selection
        // keeps (modulo subgroup truncation), so decoding is idempotent:
        // a second encode→decode trip reproduces the same text file.
        let ptw2 = dir.join("pstrace_cli_wire2.ptw");
        let back2 = dir.join("pstrace_cli_wire_back2.txt");
        let ptw2_s = ptw2.to_string_lossy().to_string();
        let back2_s = back2.to_string_lossy().to_string();
        assert!(dispatch(&argv(&[
            "trace",
            "encode",
            &back_s,
            "--out",
            &ptw2_s,
            "--scenario",
            "1"
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["trace", "decode", &ptw2_s, "--out", &back2_s])).is_ok());
        let first = std::fs::read_to_string(&back).unwrap();
        let second = std::fs::read_to_string(&back2).unwrap();
        assert_eq!(first, second);
        assert!(!first.trim().is_empty());

        for p in [txt, ptw, back, ptw2, back2] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn trace_subcommand_rejects_bad_input() {
        assert!(dispatch(&argv(&["trace"])).is_err());
        assert!(dispatch(&argv(&["trace", "transcode"])).is_err());
        assert!(dispatch(&argv(&["trace", "encode"])).is_err());
        assert!(dispatch(&argv(&["trace", "decode", "/nonexistent.ptw"])).is_err());
        let tmp = std::env::temp_dir().join("pstrace_cli_not_ptw.bin");
        std::fs::write(&tmp, b"this is not a wire stream").unwrap();
        let p = tmp.to_string_lossy().to_string();
        assert!(
            dispatch(&argv(&["trace", "decode", &p])).is_err(),
            "bad magic must error, not panic"
        );
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn select_file_parses_a_document() {
        let tmp = std::env::temp_dir().join("pstrace_cli_flows.txt");
        std::fs::write(
            &tmp,
            "message ReqE 1\nmessage GntE 1\nmessage Ack 1\n\
             flow \"cc\" {\n state Init Wait\n atomic GntW\n stop Done\n initial Init\n\
             edge Init -ReqE-> Wait\n edge Wait -GntE-> GntW\n edge GntW -Ack-> Done\n}\n",
        )
        .unwrap();
        let path = tmp.to_string_lossy().to_string();
        assert!(dispatch(&argv(&[
            "select-file",
            &path,
            "--buffer",
            "2",
            "--instances",
            "2"
        ]))
        .is_ok());
        assert!(
            dispatch(&argv(&["select-file", &path, "--threads", "off"])).is_err(),
            "select-file has no --threads"
        );
        assert!(dispatch(&argv(&["select-file", "/nonexistent/file"])).is_err());
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn stats_and_vcd_run() {
        assert!(dispatch(&argv(&["stats"])).is_ok());
        let tmp = std::env::temp_dir().join("pstrace_cli_test.vcd");
        let out = tmp.to_string_lossy().to_string();
        assert!(dispatch(&argv(&["vcd", "--cycles", "8", "--out", &out])).is_ok());
        let content = std::fs::read_to_string(&tmp).unwrap();
        assert!(content.contains("$enddefinitions"));
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn dot_exports() {
        assert!(dispatch(&argv(&["dot", "--flow", "Mon"])).is_ok());
        assert!(dispatch(&argv(&["dot", "--flow", "pior", "--interleaved"])).is_ok());
        assert!(dispatch(&argv(&["dot", "--scenario", "2"])).is_ok());
        assert!(dispatch(&argv(&["dot", "--flow", "nope"])).is_err());
    }

    #[test]
    fn serve_smoke_binds_and_shuts_down() {
        // `--sessions 0` binds an ephemeral port, prints stats, exits.
        assert!(dispatch(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--sessions",
            "0"
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["serve", "--addr", "not-an-address"])).is_err());
        // With a metrics endpoint riding along.
        assert!(dispatch(&argv(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--metrics-addr",
            "127.0.0.1:0",
            "--sessions",
            "0"
        ]))
        .is_ok());
    }

    #[test]
    fn profile_flags_run_and_write_valid_chrome_json() {
        assert!(dispatch(&argv(&["select", "--scenario", "1", "--profile"])).is_ok());
        assert!(dispatch(&argv(&["debug", "--case", "1", "--profile"])).is_ok());

        let tmp = std::env::temp_dir().join("pstrace_cli_profile.json");
        let path = tmp.to_string_lossy().to_string();
        assert!(dispatch(&argv(&["debug", "--case", "1", "--profile-json", &path])).is_ok());
        let json = std::fs::read_to_string(&tmp).unwrap();
        let value = pstrace_obs::validate_json(&json).expect("chrome trace JSON parses");
        let events = value
            .get("traceEvents")
            .expect("traceEvents key")
            .as_array()
            .expect("traceEvents is an array");
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(pstrace_obs::JsonValue::as_str))
            .collect();
        for phase in ["interleave", "rank", "localize", "investigate"] {
            assert!(names.contains(&phase), "missing phase {phase} in {names:?}");
        }
        std::fs::remove_file(&tmp).ok();
    }

    #[test]
    fn metrics_subcommand_scrapes_a_live_daemon() {
        let server = pstrace_stream::Server::spawn(
            Arc::new(SocModel::t2()),
            &pstrace_stream::ServerConfig::default(),
        )
        .expect("spawn daemon");
        let addr = server.local_addr().to_string();
        assert!(dispatch(&argv(&["metrics", "--addr", &addr])).is_ok());
        server.shutdown();
        // Nothing listening on a fresh ephemeral port: connection refused.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let dead_addr = dead.local_addr().unwrap().to_string();
        drop(dead);
        assert!(dispatch(&argv(&["metrics", "--addr", &dead_addr])).is_err());
    }

    #[test]
    fn stream_replays_a_capture_in_process() {
        let dir = std::env::temp_dir();
        let txt = dir.join("pstrace_cli_stream.txt");
        let ptw = dir.join("pstrace_cli_stream.ptw");
        let txt_s = txt.to_string_lossy().to_string();
        let ptw_s = ptw.to_string_lossy().to_string();

        assert!(dispatch(&argv(&["simulate", "--scenario", "1", "--save", &txt_s])).is_ok());
        assert!(dispatch(&argv(&[
            "trace",
            "encode",
            &txt_s,
            "--out",
            &ptw_s,
            "--scenario",
            "1"
        ]))
        .is_ok());

        // No --addr: a private loopback daemon handles the replay.
        for mode in ["exact", "prefix", "suffix", "substring"] {
            assert!(
                dispatch(&argv(&[
                    "stream",
                    &ptw_s,
                    "--scenario",
                    "1",
                    "--mode",
                    mode,
                    "--chunk",
                    "7"
                ]))
                .is_ok(),
                "--mode {mode}"
            );
        }
        assert!(dispatch(&argv(&["stream", &ptw_s, "--mode", "fuzzy"])).is_err());
        assert!(dispatch(&argv(&["stream"])).is_err());
        assert!(dispatch(&argv(&["stream", "/nonexistent.ptw"])).is_err());

        // The hardened client path: same replay, resumable protocol.
        assert!(dispatch(&argv(&["stream", &ptw_s, "--retries", "2"])).is_ok());
        assert!(dispatch(&argv(&["stream", &ptw_s, "--retries", "many"])).is_err());

        for p in [txt, ptw] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn chaos_soak_smoke_survives() {
        assert!(dispatch(&argv(&[
            "chaos",
            "--seed",
            "7",
            "--sessions",
            "2",
            "--intensity",
            "light",
            "--records",
            "300",
        ]))
        .is_ok());
        assert!(dispatch(&argv(&["chaos", "--intensity", "apocalyptic"])).is_err());
        // Fleet spelling: sharded daemon, concurrent clients.
        assert!(dispatch(&argv(&[
            "chaos",
            "--seed",
            "7",
            "--sessions",
            "4",
            "--records",
            "150",
            "--shards",
            "2",
            "--concurrency",
            "4",
            "--intensity",
            "light",
        ]))
        .is_ok());
    }

    #[test]
    fn stop_asks_a_live_daemon_to_drain() {
        let server = pstrace_stream::Server::spawn(
            Arc::new(SocModel::t2()),
            &pstrace_stream::ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                ..pstrace_stream::ServerConfig::default()
            },
        )
        .expect("spawn daemon");
        let addr = server.local_addr().to_string();
        assert!(dispatch(&argv(&["stop", "--addr", &addr])).is_ok());
        assert!(server.shutdown_requested());
        server.shutdown();
        // Nothing listening afterward: the verb reaches a dead daemon.
        assert!(dispatch(&argv(&["stop", "--addr", &addr])).is_err());
    }

    #[test]
    fn fleet_smoke_reports_throughput_and_writes_json() {
        let tmp = std::env::temp_dir().join("pstrace_cli_fleet.json");
        let path = tmp.to_string_lossy().to_string();
        assert!(dispatch(&argv(&[
            "fleet",
            "--sessions",
            "8",
            "--records",
            "150",
            "--shards",
            "2",
            "--concurrency",
            "8",
            "--json",
            &path,
        ]))
        .is_ok());
        let json = std::fs::read_to_string(&tmp).unwrap();
        assert!(json.contains("\"bench\":\"fleet_ingest\""), "{json}");
        assert!(json.contains("\"records_per_sec\":"), "{json}");
        assert!(json.contains("\"shards\":2"), "{json}");
        std::fs::remove_file(&tmp).ok();
    }
}
