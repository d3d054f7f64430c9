//! Load generator: N concurrent client groups hammer a PPGNN server and
//! report throughput, latency percentiles, and resilience counters.
//!
//! ```text
//! loadgen [--addr HOST:PORT] [--groups 8] [--queries 13] [--users 2]
//!         [--keysize 128] [--k 2] [--d 3] [--delta 6] [--opt] [--seed 7]
//!         [--sanitize] [--bench-json PATH] [--require-stages a,b,c]
//!         [--moving | --crash [--server-bin PATH] [--data-dir PATH]]
//!         [--ticks 12]
//!         [--chaos-seed S] [--chaos-delay-prob P] [--chaos-delay-ms MS]
//!         [--chaos-corrupt-prob P] [--chaos-truncate-prob P]
//!         [--chaos-sever-prob P]
//! ```
//!
//! Without `--addr`, an in-process server is spun up on an ephemeral
//! port (same defaults as `ppgnn-server`), so the binary is
//! self-contained. The `--chaos-*` flags arm seeded fault injection on
//! that in-process server's connections; the client's built-in retry
//! (which honors the server's `retry_after_ms` hint) rides through the
//! faults, and sheds, retries, reconnects, and replayed answers are
//! reported per group and in total.
//!
//! Observability: `--bench-json PATH` writes a machine-readable report
//! (`BENCH_server.json` in CI) with the run metadata, the end-to-end
//! latency summary, and the full telemetry snapshot — per-stage
//! p50/p95/p99 for every pipeline stage plus the crypto op and service
//! counters. For an in-process run the snapshot comes straight off the
//! shared registry; against `--addr` the client-side stages are
//! overlaid with the server's own `Stats` reply. `--require-stages`
//! names stages that must have non-zero counts, and exits 1 when one
//! is missing — the CI bench-smoke gate.
//!
//! Tracing: `--trace-out PATH` arms the span collector
//! (`ppgnn_telemetry::trace`) for the run and writes every kept trace
//! as Chrome `trace_event` JSON to PATH — load it in Perfetto or
//! `chrome://tracing` to see the client→server span tree per query.
//! In-process runs capture both halves off the shared tracer; against
//! `--addr` the server half is fetched over the wire (`TraceFetch`)
//! and merged. `--trace-slow-us` sets the always-keep slow threshold
//! and `--trace-sample-permille` the probabilistic tail keep rate
//! (default with `--trace-out`: keep everything). The run exits 1 if
//! tracing was requested but no trace was kept — the CI trace-smoke
//! gate.
//!
//! Moving-world soak: `--moving` and `--crash` switch to the soak of
//! `ppgnn_server::soak` — groups on seeded drifting trajectories hold
//! standing queries (`Subscribe`) while an admin lane churns the POI
//! index, and every re-plan and every silence is checked against a
//! plaintext oracle. `--moving` runs it against an in-process dynamic
//! server; `--crash` against a child `ppgnn-server` (`--server-bin`,
//! default: the one next to this binary) on a durable `--data-dir`
//! (default: a per-process temp dir; it must hold no checkpoint or WAL
//! yet), SIGKILLed and restarted at fixed ticks, with each
//! incarnation's stderr appended to `<data-dir>/recovery.log`. The run
//! exits 1 on any missed invalidation, wrong answer, version-chain
//! break, non-idempotent redelivery, unnoticed restart, re-query
//! savings under 2x, or missing durability stage — the CI soak-smoke
//! gate. `--seed` and `--ticks` shape the run; `--require-stages`
//! additionally gates on the final server's stages, fetched over the
//! wire (`index-mutate,invalidate-scan,fanout-notify` for the live
//! world, `wal-append,recover-replay` for durability).

use std::sync::Arc;
use std::time::{Duration, Instant};

use ppgnn_core::{Lsp, PpgnnConfig, Variant};
use ppgnn_geo::{Poi, Point, Rect};
use ppgnn_server::frame::DEFAULT_MAX_PAYLOAD;
use ppgnn_server::soak::KILL_AT_TICKS;
use ppgnn_server::{
    run_soak, serve_world, sessionless_exchange, summarize, ClientStats, FaultConfig, FrameType,
    GroupClient, LatencySummary, PongPayload, ServerConfig, ServerError, SloConfig, SoakConfig,
    SoakServer, StatsReplyPayload, TelemetrySnapshot, TraceReplyPayload,
};
use ppgnn_telemetry::json;
use ppgnn_telemetry::trace::{self, TracerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Args {
    addr: Option<String>,
    moving: bool,
    crash: bool,
    server_bin: Option<String>,
    data_dir: Option<String>,
    ticks: Option<usize>,
    groups: usize,
    queries: usize,
    users: usize,
    keysize: usize,
    k: usize,
    d: usize,
    delta: usize,
    opt: bool,
    sanitize: bool,
    seed: u64,
    pois: usize,
    bench_json: Option<String>,
    require_stages: Option<String>,
    trace_out: Option<String>,
    trace_slow_us: u64,
    trace_sample_permille: u32,
    chaos: FaultConfig,
    parallelism: usize,
    naive_crypto: bool,
    offline_randomness: bool,
    repeats: usize,
    slo: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        moving: false,
        crash: false,
        server_bin: None,
        data_dir: None,
        ticks: None,
        groups: 8,
        queries: 13,
        users: 2,
        keysize: 128,
        k: 2,
        d: 3,
        delta: 6,
        opt: false,
        sanitize: false,
        seed: 7,
        pois: 400,
        bench_json: None,
        require_stages: None,
        trace_out: None,
        trace_slow_us: TracerConfig::default().slow_us,
        trace_sample_permille: 1000,
        chaos: FaultConfig::off(1),
        parallelism: 1,
        naive_crypto: false,
        offline_randomness: false,
        repeats: 1,
        slo: false,
    };
    args.chaos.max_delay = Duration::from_millis(20);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = Some(value("--addr")?),
            "--moving" => args.moving = true,
            "--crash" => args.crash = true,
            "--server-bin" => args.server_bin = Some(value("--server-bin")?),
            "--data-dir" => args.data_dir = Some(value("--data-dir")?),
            "--ticks" => args.ticks = Some(parse(&value("--ticks")?)?),
            "--groups" => args.groups = parse(&value("--groups")?)?,
            "--queries" => args.queries = parse(&value("--queries")?)?,
            "--users" => args.users = parse(&value("--users")?)?,
            "--keysize" => args.keysize = parse(&value("--keysize")?)?,
            "--k" => args.k = parse(&value("--k")?)?,
            "--d" => args.d = parse(&value("--d")?)?,
            "--delta" => args.delta = parse(&value("--delta")?)?,
            "--pois" => args.pois = parse(&value("--pois")?)?,
            "--seed" => args.seed = parse(&value("--seed")?)?,
            "--opt" => args.opt = true,
            "--sanitize" => args.sanitize = true,
            "--bench-json" => args.bench_json = Some(value("--bench-json")?),
            "--require-stages" => args.require_stages = Some(value("--require-stages")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--trace-slow-us" => args.trace_slow_us = parse(&value("--trace-slow-us")?)?,
            "--trace-sample-permille" => {
                args.trace_sample_permille = parse(&value("--trace-sample-permille")?)?;
                if args.trace_sample_permille > 1000 {
                    return Err("--trace-sample-permille must be 0..=1000".into());
                }
            }
            "--chaos-seed" => args.chaos.seed = parse(&value("--chaos-seed")?)?,
            "--chaos-delay-prob" => args.chaos.delay_prob = parse(&value("--chaos-delay-prob")?)?,
            "--chaos-delay-ms" => {
                args.chaos.max_delay = Duration::from_millis(parse(&value("--chaos-delay-ms")?)?)
            }
            "--chaos-corrupt-prob" => {
                args.chaos.corrupt_prob = parse(&value("--chaos-corrupt-prob")?)?
            }
            "--chaos-truncate-prob" => {
                args.chaos.truncate_prob = parse(&value("--chaos-truncate-prob")?)?
            }
            "--chaos-sever-prob" => args.chaos.sever_prob = parse(&value("--chaos-sever-prob")?)?,
            "--parallelism" => args.parallelism = parse(&value("--parallelism")?)?,
            "--naive-crypto" => args.naive_crypto = true,
            "--offline-randomness" => args.offline_randomness = true,
            "--repeats" => {
                args.repeats = parse(&value("--repeats")?)?;
                if args.repeats == 0 {
                    return Err("--repeats must be at least 1".into());
                }
            }
            "--slo" => args.slo = true,
            "--help" | "-h" => {
                println!(
                    "usage: loadgen [--addr HOST:PORT] [--groups N] [--queries M] \
                     [--users U] [--keysize B] [--k K] [--d D] [--delta DELTA] \
                     [--pois P] [--opt] [--sanitize] [--seed S] \
                     [--moving | --crash [--server-bin PATH] [--data-dir PATH]] \
                     [--ticks T] \
                     [--bench-json PATH] [--require-stages a,b,c] \
                     [--trace-out PATH] [--trace-slow-us US] \
                     [--trace-sample-permille P] \
                     [--chaos-seed S] [--chaos-delay-prob P] [--chaos-delay-ms MS] \
                     [--chaos-corrupt-prob P] [--chaos-truncate-prob P] \
                     [--chaos-sever-prob P] [--parallelism T] [--naive-crypto] \
                     [--offline-randomness] [--repeats N] [--slo]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.chaos.is_active() && args.addr.is_some() {
        return Err("--chaos-* flags require the in-process server (drop --addr)".into());
    }
    if args.moving && args.addr.is_some() {
        return Err("--moving boots its own dynamic in-process server (drop --addr)".into());
    }
    if args.crash && args.addr.is_some() {
        return Err("--crash spawns and kills its own child server (drop --addr)".into());
    }
    if args.crash && args.moving {
        return Err("--crash and --moving are distinct modes; pick one".into());
    }
    if !args.crash && (args.server_bin.is_some() || args.data_dir.is_some()) {
        return Err("--server-bin and --data-dir belong to the --crash lane".into());
    }
    if !(args.moving || args.crash) && args.ticks.is_some() {
        return Err("--ticks needs a soak lane (--moving or --crash)".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

/// One group's worth of results, joined back on the main thread.
struct GroupReport {
    group: usize,
    latencies_us: Vec<u64>,
    errors: u64,
    stats: ClientStats,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("loadgen: {e}");
            std::process::exit(2);
        }
    };
    if args.moving || args.crash {
        soak(&args);
    }
    if args.trace_out.is_some() {
        // Arm the collector before any client exists so the very first
        // query is already traced. The ring must hold the whole run:
        // tail-kept segments beyond capacity silently evict the oldest.
        trace::global().configure(&TracerConfig {
            enabled: true,
            slow_us: args.trace_slow_us,
            keep_permille: args.trace_sample_permille,
            capacity: (2 * args.groups * args.queries).max(256),
            ..TracerConfig::default()
        });
    }
    let config = PpgnnConfig {
        k: args.k,
        d: args.d,
        delta: args.delta,
        keysize: args.keysize,
        sanitize: args.sanitize,
        offline_randomness: args.offline_randomness,
        variant: if args.opt {
            Variant::Opt
        } else {
            Variant::Plain
        },
        ..PpgnnConfig::fast_test()
    };

    // Spin up an in-process server when no address was given.
    let local_server = if args.addr.is_none() {
        let mut rng = StdRng::seed_from_u64(args.seed ^ 0xdb);
        let pois: Vec<Poi> = (0..args.pois)
            .map(|i| Poi::new(i as u32, Point::new(rng.gen::<f64>(), rng.gen::<f64>())))
            .collect();
        let lsp = Arc::new(
            Lsp::new(pois, config.clone())
                .with_parallelism(args.parallelism)
                .with_naive_crypto(args.naive_crypto),
        );
        let server_config = ServerConfig {
            fault: args.chaos.is_active().then(|| args.chaos.clone()),
            selection_parallelism: args.parallelism.max(1),
            naive_crypto: args.naive_crypto,
            slo: args.slo.then(SloConfig::default),
            ..ServerConfig::default()
        };
        let handle = match serve_world(lsp, "127.0.0.1:0", server_config) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("loadgen: failed to start in-process server: {e}");
                std::process::exit(1);
            }
        };
        if args.chaos.is_active() {
            println!(
                "loadgen: in-process server on {} (chaos seed {})",
                handle.local_addr(),
                args.chaos.seed
            );
        } else {
            println!("loadgen: in-process server on {}", handle.local_addr());
        }
        Some(handle)
    } else {
        None
    };
    let addr = match (&args.addr, &local_server) {
        (Some(a), _) => a.clone(),
        (None, Some(h)) => h.local_addr().to_string(),
        (None, None) => unreachable!(),
    };

    let start = Instant::now();
    let mut all_latencies = Vec::with_capacity(args.repeats * args.groups * args.queries);
    let mut reports = Vec::with_capacity(args.repeats * args.groups);
    let mut join_failures = 0u64;
    // `--repeats N` re-runs the whole query phase N times against the
    // same server, with distinct seeds and group IDs per repeat (same
    // IDs would trip the registry's request-ID anti-rewind gate). The
    // per-repeat summaries measure run-to-run variance — the spread CI
    // derives its per-stage regression thresholds from.
    let mut repeat_summaries: Vec<LatencySummary> = Vec::with_capacity(args.repeats);
    for repeat in 0..args.repeats {
        let repeat_start = Instant::now();
        let handles: Vec<_> = (0..args.groups)
            .map(|g| {
                let addr = addr.clone();
                let config = config.clone();
                let seed = args.seed.wrapping_add((repeat as u64) << 32);
                let group_id = (repeat * args.groups + g) as u64 + 1;
                let (users, queries) = (args.users, args.queries);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(g as u64));
                    let mut report = GroupReport {
                        group: g,
                        latencies_us: Vec::with_capacity(queries),
                        errors: 0,
                        stats: ClientStats::default(),
                    };
                    // The handshake itself can be hit by an injected fault;
                    // it carries no session state, so just connect again.
                    let mut client = None;
                    for attempt in 0u32..5 {
                        match GroupClient::connect(
                            addr.as_str(),
                            group_id,
                            config.clone(),
                            Rect::UNIT,
                            users,
                            &mut rng,
                        ) {
                            Ok(c) => {
                                client = Some(c);
                                break;
                            }
                            Err(e) => {
                                eprintln!("group {g}: connect attempt {attempt} failed: {e}");
                                std::thread::sleep(Duration::from_millis(10 << attempt));
                            }
                        }
                    }
                    let Some(mut client) = client else {
                        report.errors += 1;
                        return report;
                    };
                    for _ in 0..queries {
                        let locations: Vec<Point> = (0..users)
                            .map(|_| Point::new(rng.gen(), rng.gen()))
                            .collect();
                        let t0 = Instant::now();
                        // Busy sheds and transient faults are retried
                        // inside the client (honoring retry_after_ms);
                        // only budget-exhausted or deterministic failures
                        // surface here.
                        match client.query(&locations, &mut rng) {
                            Ok(answer) => {
                                assert!(!answer.is_empty(), "empty answer");
                                report.latencies_us.push(t0.elapsed().as_micros() as u64);
                            }
                            Err(e) => {
                                eprintln!("group {g}: query failed: {e}");
                                report.errors += 1;
                            }
                        }
                    }
                    report.stats = client.stats();
                    client.goodbye();
                    report
                })
            })
            .collect();

        let mut repeat_latencies = Vec::with_capacity(args.groups * args.queries);
        for h in handles {
            match h.join() {
                Ok(r) => {
                    repeat_latencies.extend(r.latencies_us.iter().copied());
                    reports.push(r);
                }
                Err(_) => join_failures += 1,
            }
        }
        repeat_summaries.push(summarize(repeat_latencies.clone(), repeat_start.elapsed()));
        all_latencies.extend(repeat_latencies);
    }
    let elapsed = start.elapsed();
    let summary = summarize(all_latencies, elapsed);
    let variance = measure_variance(&repeat_summaries);

    println!("group   ok  errors  sheds  retries  reconnects  replays");
    let mut errors = join_failures;
    let mut total = ClientStats::default();
    for r in &reports {
        println!(
            "{:>5} {:>4} {:>7} {:>6} {:>8} {:>11} {:>8}",
            r.group,
            r.latencies_us.len(),
            r.errors,
            r.stats.busy_sheds,
            r.stats.retries,
            r.stats.reconnects,
            r.stats.replayed_answers,
        );
        errors += r.errors;
        total.busy_sheds += r.stats.busy_sheds;
        total.retries += r.stats.retries;
        total.reconnects += r.stats.reconnects;
        total.replayed_answers += r.stats.replayed_answers;
    }
    if join_failures > 0 {
        eprintln!("loadgen: {join_failures} group thread(s) panicked");
    }

    println!(
        "groups={} queries={} errors={} sheds={} retries={} reconnects={} replays={} \
         elapsed={:.2}s throughput={:.1} qps",
        args.groups,
        summary.count,
        errors,
        total.busy_sheds,
        total.retries,
        total.reconnects,
        total.replayed_answers,
        elapsed.as_secs_f64(),
        summary.throughput_qps
    );
    println!(
        "latency_us p50={} p95={} p99={} mean={} max={}",
        summary.p50_us, summary.p95_us, summary.p99_us, summary.mean_us, summary.max_us
    );
    if let Some(v) = &variance {
        println!(
            "variance over {} repeats: p50 {}..{}us (spread {}‰) p95 {}..{}us (spread {}‰)",
            v.repeats,
            v.p50_min_us,
            v.p50_max_us,
            v.p50_spread_permille,
            v.p95_min_us,
            v.p95_max_us,
            v.p95_spread_permille
        );
    }

    // Capture the observability window *now* so the windowed faces and
    // the SLO burn rates reflect this run even when it finished inside
    // the ticker's first 1 s interval.
    if let Some(handle) = &local_server {
        handle.flush_windows();
    }

    // In-process runs share one global registry, so the handle snapshot
    // already holds both client- and server-side stages. Against a
    // remote server this process only sees the client stages; fetch the
    // server's own snapshot over the wire and overlay what is missing.
    let snapshot = match &local_server {
        Some(handle) => handle.telemetry_snapshot(),
        None => {
            let mut local = ppgnn_telemetry::global().snapshot();
            let remote = remote_exchange(&addr, FrameType::Stats)
                .and_then(|p| Ok(StatsReplyPayload::decode(&p)?.snapshot));
            match remote {
                Ok(remote) => local.fill_missing_stages_from(&remote),
                Err(e) => eprintln!("loadgen: fetching server stats from {addr}: {e}"),
            }
            local
        }
    };
    if let Some(path) = &args.bench_json {
        let report = bench_report(
            &args,
            &summary,
            errors,
            &total,
            elapsed,
            &snapshot,
            variance.as_ref(),
        );
        match std::fs::write(path, report.as_bytes()) {
            Ok(()) => println!("bench report written to {path}"),
            Err(e) => {
                eprintln!("loadgen: writing {path}: {e}");
                errors += 1;
            }
        }
    }
    let mut gate_failed = false;
    if let Some(required) = &args.require_stages {
        let names = stage_list(required);
        let missing = snapshot.missing_stages(&names);
        if missing.is_empty() {
            println!("required stages all recorded: {}", names.join(", "));
        } else {
            eprintln!(
                "loadgen: required stage metrics missing or zero: {}",
                missing.join(", ")
            );
            gate_failed = true;
        }
    }

    // `--slo` gate: the run fails when any burn rate ran past budget
    // (> 1000 permille = consuming the error budget faster than the
    // objective allows). In-process the health comes off the handle;
    // against `--addr` a sessionless Ping fetches the same snapshot.
    if args.slo {
        let health = match &local_server {
            Some(handle) => Some(handle.health()),
            None => match remote_exchange(&addr, FrameType::Ping)
                .and_then(|p| Ok(PongPayload::decode(&p)?.health))
            {
                Ok(h) => Some(h),
                Err(e) => {
                    eprintln!("loadgen: fetching health from {addr}: {e}");
                    gate_failed = true;
                    None
                }
            },
        };
        if let Some(h) = health {
            let burns = [
                ("latency-fast", h.slo_latency_fast_burn_pm),
                ("latency-slow", h.slo_latency_slow_burn_pm),
                ("error-fast", h.slo_error_fast_burn_pm),
                ("error-slow", h.slo_error_slow_burn_pm),
            ];
            println!(
                "slo burn (permille of budget): latency {}/{} errors {}/{} [fast/slow]",
                burns[0].1, burns[1].1, burns[2].1, burns[3].1
            );
            for (name, pm) in burns {
                if pm > 1000 {
                    eprintln!(
                        "loadgen: SLO {name} burn {pm}\u{2030} exceeds budget (1000\u{2030})"
                    );
                    gate_failed = true;
                }
            }
        }
    }

    if let Some(path) = &args.trace_out {
        // In-process runs share one global tracer, so `segments()`
        // already holds both the client and server halves of every
        // kept trace. Against a remote server this process only kept
        // the client halves; fetch the server's ring over the wire.
        let mut segments = trace::global().segments();
        if args.addr.is_some() {
            let remote = remote_exchange(&addr, FrameType::TraceFetch)
                .and_then(|p| Ok(TraceReplyPayload::decode(&p)?.segments));
            match remote {
                Ok(remote) => segments.extend(remote),
                Err(e) => eprintln!("loadgen: fetching server traces from {addr}: {e}"),
            }
        }
        let c = trace::global().counters();
        println!(
            "traces: finished={} kept={} (slow={} error={}) dropped={}",
            c.finished, c.kept, c.kept_slow, c.kept_error, c.dropped
        );
        let mut ids: Vec<u64> = segments.iter().map(|s| s.trace_id).collect();
        ids.sort_unstable();
        ids.dedup();
        match std::fs::write(path, trace::chrome_trace_json(&segments)) {
            Ok(()) => println!(
                "trace events written to {path} ({} traces, {} segments)",
                ids.len(),
                segments.len()
            ),
            Err(e) => {
                eprintln!("loadgen: writing {path}: {e}");
                errors += 1;
            }
        }
        if ids.is_empty() {
            eprintln!("loadgen: tracing was on but no trace was kept");
            gate_failed = true;
        }
    }

    if let Some(handle) = local_server {
        println!("server: {}", handle.stats_probe().metrics_line());
        handle.shutdown();
    }
    if errors > 0 || gate_failed {
        std::process::exit(1);
    }
}

/// The `--moving` and `--crash` modes: one run of the moving-world
/// soak (`ppgnn_server::soak`), against an in-process dynamic server or
/// against a child `ppgnn-server` on a durable data dir that is
/// SIGKILLed and restarted at fixed ticks. The world is
/// [`SoakConfig::default`]'s (tuned so sentinel margins outlive a
/// realistic walking pace); `--seed` and `--ticks` vary the run. Prints
/// one line per `--require-stages` stage from the final server's
/// snapshot and exits 1 unless the report passed and every required
/// stage recorded.
fn soak(args: &Args) -> ! {
    let server = if args.crash {
        let server_bin = match &args.server_bin {
            Some(p) => std::path::PathBuf::from(p),
            None => {
                let sibling = std::env::current_exe()
                    .ok()
                    .and_then(|p| p.parent().map(|d| d.join("ppgnn-server")));
                match sibling {
                    Some(p) if p.exists() => p,
                    _ => {
                        eprintln!(
                            "loadgen: cannot find ppgnn-server next to this binary; pass --server-bin"
                        );
                        std::process::exit(2);
                    }
                }
            }
        };
        let data_dir = match &args.data_dir {
            Some(p) => std::path::PathBuf::from(p),
            None => std::env::temp_dir().join(format!("ppgnn-crash-{}", std::process::id())),
        };
        SoakServer::Child {
            server_bin,
            data_dir,
        }
    } else {
        SoakServer::InProcess
    };
    let mut config = SoakConfig {
        server,
        ..SoakConfig::default()
    };
    config.world.seed = args.seed;
    config.ticks = args.ticks.unwrap_or(config.ticks);
    let lane = match &config.server {
        SoakServer::InProcess => "an in-process server".to_string(),
        SoakServer::Child { data_dir, .. } => format!(
            "a child server killed after ticks {:?}, data dir {}",
            KILL_AT_TICKS,
            data_dir.display()
        ),
    };
    println!(
        "loadgen: moving-world soak, seed {} ({} groups x {} ticks, {} POIs) on {lane}",
        args.seed, config.world.n_groups, config.ticks, config.world.initial_pois
    );
    let report = match run_soak(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: soak failed before the verdict: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", report.render());

    let mut gate_failed = false;
    for name in args
        .require_stages
        .as_deref()
        .map(stage_list)
        .unwrap_or_default()
    {
        match report
            .stats
            .stages
            .iter()
            .find(|s| s.name == name && s.count > 0)
        {
            Some(s) => println!(
                "stage {:>16}: count={} p50={}us p95={}us max={}us",
                s.name, s.count, s.p50_us, s.p95_us, s.max_us
            ),
            None => {
                eprintln!("stage {name:>16}: never recorded");
                gate_failed = true;
            }
        }
    }
    if !report.passed() || gate_failed {
        std::process::exit(1);
    }
    std::process::exit(0);
}

/// The stage names of a `--require-stages a,b,c` list.
fn stage_list(list: &str) -> Vec<&str> {
    list.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// One sessionless exchange with a remote server on a fresh connection
/// (`Ping` for health, `Stats` for the telemetry snapshot, `TraceFetch`
/// to drain its kept traces); returns the reply payload.
fn remote_exchange(addr: &str, request: FrameType) -> Result<Vec<u8>, ServerError> {
    let mut stream = std::net::TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    sessionless_exchange(&mut stream, request, DEFAULT_MAX_PAYLOAD)
}

/// The machine-readable bench report (`BENCH_server.json` in CI): run
/// metadata, the end-to-end latency summary, client resilience totals,
/// and the full telemetry snapshot.
fn bench_report(
    args: &Args,
    summary: &LatencySummary,
    errors: u64,
    total: &ClientStats,
    elapsed: Duration,
    snapshot: &TelemetrySnapshot,
    variance: Option<&Variance>,
) -> String {
    let mut meta = json::Obj::new();
    meta.field_str(
        "mode",
        if args.addr.is_some() {
            "remote"
        } else {
            "in-process"
        },
    );
    meta.field_u64("groups", args.groups as u64);
    meta.field_u64("queries_per_group", args.queries as u64);
    meta.field_u64("users", args.users as u64);
    meta.field_u64("keysize", args.keysize as u64);
    meta.field_u64("k", args.k as u64);
    meta.field_u64("d", args.d as u64);
    meta.field_u64("delta", args.delta as u64);
    meta.field_str("variant", if args.opt { "opt" } else { "plain" });
    meta.field_bool("sanitize", args.sanitize);
    meta.field_bool("chaos", args.chaos.is_active());
    meta.field_u64("seed", args.seed);
    meta.field_u64("elapsed_ms", elapsed.as_millis() as u64);
    meta.field_u64("parallelism", args.parallelism as u64);
    meta.field_bool("naive_crypto", args.naive_crypto);
    meta.field_bool("offline_randomness", args.offline_randomness);
    meta.field_u64("repeats", args.repeats as u64);
    if let Some(v) = variance {
        meta.field_u64("p50_min_us", v.p50_min_us);
        meta.field_u64("p50_max_us", v.p50_max_us);
        meta.field_u64("p50_spread_permille", v.p50_spread_permille);
        meta.field_u64("p95_min_us", v.p95_min_us);
        meta.field_u64("p95_max_us", v.p95_max_us);
        meta.field_u64("p95_spread_permille", v.p95_spread_permille);
    }

    let mut client = json::Obj::new();
    client.field_u64("errors", errors);
    client.field_u64("busy_sheds", total.busy_sheds);
    client.field_u64("retries", total.retries);
    client.field_u64("reconnects", total.reconnects);
    client.field_u64("replayed_answers", total.replayed_answers);

    // The crypto hot path (DESIGN.md §17): how often online encryption
    // was served by a precomputed randomizer instead of a fresh modpow.
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
            .unwrap_or(0)
    };
    let (hits, misses) = (counter("pool-hit"), counter("pool-miss"));
    let mut hotpath = json::Obj::new();
    hotpath.field_u64("pool_hits", hits);
    hotpath.field_u64("pool_misses", misses);
    hotpath.field_f64(
        "pool_hit_ratio",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );

    let mut obj = json::Obj::new();
    obj.field_raw("meta", &meta.finish());
    obj.field_f64("throughput_qps", summary.throughput_qps);
    obj.field_raw("latency", &summary.to_json());
    obj.field_raw("client", &client.finish());
    obj.field_raw("crypto_hotpath", &hotpath.finish());
    obj.field_raw("telemetry", &snapshot.to_json());
    obj.finish()
}

/// Run-to-run latency spread across `--repeats` passes: the raw CI
/// signal for how tight (or flaky) the bench host is, and the input
/// for deriving per-stage regression thresholds.
struct Variance {
    repeats: u64,
    p50_min_us: u64,
    p50_max_us: u64,
    p50_spread_permille: u64,
    p95_min_us: u64,
    p95_max_us: u64,
    p95_spread_permille: u64,
}

fn measure_variance(summaries: &[LatencySummary]) -> Option<Variance> {
    if summaries.len() < 2 {
        return None;
    }
    let spread = |values: &mut dyn Iterator<Item = u64>| -> (u64, u64, u64) {
        let (mut min, mut max) = (u64::MAX, 0u64);
        for v in values {
            min = min.min(v);
            max = max.max(v);
        }
        (min, max, (max - min) * 1000 / max.max(1))
    };
    let (p50_min_us, p50_max_us, p50_spread_permille) =
        spread(&mut summaries.iter().map(|s| s.p50_us));
    let (p95_min_us, p95_max_us, p95_spread_permille) =
        spread(&mut summaries.iter().map(|s| s.p95_us));
    Some(Variance {
        repeats: summaries.len() as u64,
        p50_min_us,
        p50_max_us,
        p50_spread_permille,
        p95_min_us,
        p95_max_us,
        p95_spread_permille,
    })
}
