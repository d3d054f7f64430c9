//! `observer`: the passive network adversary and its CI gate.
//!
//! Spins up matched in-process server pairs (shape off / shape padded),
//! drives known-different workloads against each (δ′ 6 vs 12, k 2 vs
//! 8, sanitation off vs on), records only what an on-path eavesdropper
//! sees — response frame sizes and request→response latencies — and
//! runs a permutation Kolmogorov–Smirnov test per (scenario, mode,
//! channel). See `ppgnn_server::observer` for the statistics.
//!
//! ```text
//! observer [--seed 7] [--samples 30] [--warmup 2] [--permutations 1000]
//!          [--quantum-ms 200] [--latency-bin-ms 25] [--pois 200]
//!          [--json PATH]
//! ```
//!
//! Exit status is the two-direction gate: 0 when the off-mode server
//! was distinguished (p < 0.01 on some channel) AND the padded server
//! was not (p ≥ 0.05 on every channel); 1 otherwise; 2 on usage
//! errors. `--json` writes the full distribution report (the CI
//! artifact, padded-mode overhead included as its `"shape"` section)
//! before the gate is evaluated, so a failing run still leaves its
//! evidence behind.

use std::time::Duration;

use ppgnn_server::observer::ObserverConfig;
use ppgnn_server::run_observer;
use ppgnn_server::ShapeMode;

struct Args {
    config: ObserverConfig,
    json: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: ObserverConfig::default(),
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--seed" => args.config.seed = parse(&value("--seed")?)?,
            "--samples" => args.config.samples_per_arm = parse(&value("--samples")?)?,
            "--warmup" => args.config.warmup_per_arm = parse(&value("--warmup")?)?,
            "--permutations" => args.config.permutations = parse(&value("--permutations")?)?,
            "--quantum-ms" => {
                args.config.quantum = Duration::from_millis(parse(&value("--quantum-ms")?)?)
            }
            "--latency-bin-ms" => {
                args.config.latency_bin = Duration::from_millis(parse(&value("--latency-bin-ms")?)?)
            }
            "--pois" => args.config.pois = parse(&value("--pois")?)?,
            "--json" => args.json = Some(value("--json")?),
            "--help" | "-h" => {
                println!(
                    "usage: observer [--seed S] [--samples N] [--warmup W] \
                     [--permutations R] [--quantum-ms MS] [--latency-bin-ms MS] \
                     [--pois P] [--json PATH]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.config.samples_per_arm < 2 {
        return Err("--samples must be at least 2".into());
    }
    if args.config.permutations == 0 {
        return Err("--permutations must be at least 1".into());
    }
    if args.config.quantum.is_zero() || args.config.latency_bin >= args.config.quantum {
        return Err("--latency-bin-ms must be positive and below --quantum-ms".into());
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value {s:?}"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("observer: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "[observer] seed={} samples={}/arm quantum={}ms bin={}ms permutations={}",
        args.config.seed,
        args.config.samples_per_arm,
        args.config.quantum.as_millis(),
        args.config.latency_bin.as_millis(),
        args.config.permutations,
    );
    let report = match run_observer(&args.config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("observer: run failed: {e}");
            std::process::exit(1);
        }
    };
    for cell in &report.scenarios {
        eprintln!(
            "[observer] {:>8} mode={:<6} size: D={:.3} p={:.4} ({:.0}B vs {:.0}B)  \
             latency: D={:.3} p={:.4} ({:.0}us vs {:.0}us)",
            cell.scenario,
            cell.mode.name(),
            cell.size.ks_stat,
            cell.size.p_value,
            cell.size.mean_a,
            cell.size.mean_b,
            cell.latency.ks_stat,
            cell.latency.p_value,
            cell.latency.mean_a,
            cell.latency.mean_b,
        );
    }
    // The artifact is written before the gate: a failing run must
    // still leave its distributions behind for the post-mortem.
    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("observer: writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("[observer] report written to {path}");
    }
    let off_ok = report.off_distinguishable();
    let padded_leak = report.padded_distinguishable();
    eprintln!(
        "[observer] off distinguishable: {off_ok} (need true) | padded distinguishable: \
         {padded_leak} (need false) | padded p50 overhead: {}us, answer {}B -> {}B",
        report.padded_p50_us.saturating_sub(report.off_p50_us),
        report.off_answer_bytes,
        report.padded_answer_bytes,
    );
    if !off_ok {
        eprintln!(
            "observer: GATE FAILED: the unshaped ({}) server was not distinguishable — \
             the harness has no statistical power, so a padded pass would be vacuous",
            ShapeMode::Off.name()
        );
        std::process::exit(1);
    }
    if padded_leak {
        eprintln!(
            "observer: GATE FAILED: the {} server is distinguishable — the shape \
             defense leaks",
            ShapeMode::Padded.name()
        );
        std::process::exit(1);
    }
    println!("observer: gate passed (off leaks, padded does not)");
}
