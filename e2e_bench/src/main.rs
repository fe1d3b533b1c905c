//! `wg_bench` command line. The driver's contract:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>`, one JSON
//! object as the last line of standard output. Everything else (`--repeat`,
//! `--scale`, running every workload) is for people.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use wg_e2e_bench::inputs::Scale;
use wg_e2e_bench::run::{run, Outcome, RunConfig};
use wg_e2e_bench::stats::{median, quartile_spread};
use wg_e2e_bench::{benchmark_json, unit_of, Workload, END_TO_END, RUN_SECONDS};

const USAGE: &str =
    "usage: wg_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1 | --traced]
                [--scale full|tiny] [--repeat N] [--print-benchmark-json]";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    repeat: usize,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 11,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
        repeat: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--traced" => args.trace = true,
            "--scale" => {
                args.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    other => return Err(format!("--scale takes full or tiny, not '{other}'")),
                }
            }
            "--repeat" => args.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--print-benchmark-json" => {
                print!("{}", benchmark_json());
                return Ok(None);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Some(args))
}

/// Scratch space beside the build: `<target>/wg_bench/`. The benchmark
/// never writes outside the target directory it was built into.
fn bench_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("wg_bench")))
        .unwrap_or_else(|| PathBuf::from("target/wg_bench"))
}

fn hardware_context() -> String {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown cpu".into());
    format!("{threads} hardware threads, {cpu}")
}

/// The result line the contract asks for.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = unit_of(name).expect("every printed metric is declared");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn run_once(args: &Args, workload: Workload) -> Result<(), String> {
    let root = bench_dir();
    let scratch = root.join(format!("run-{}", std::process::id()));
    let outcome = run(&RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
        scratch: scratch.clone(),
    });
    // Keep the trace where a person can find it; everything else goes.
    let trace = scratch.join(format!("trace-{}.jsonl", workload.name()));
    if trace.exists() {
        let _ = std::fs::rename(&trace, root.join(format!("trace-{}.jsonl", workload.name())));
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = outcome?;
    for (name, value) in &outcome.metrics {
        eprintln!("  {name:<44} {value:>16.4} {}", unit_of(name).unwrap_or(""));
    }
    if outcome.metrics.iter().any(|(_, v)| !v.is_finite()) {
        return Err(format!("{}: a metric is not a finite number", workload.name()));
    }
    println!("{}", result_json(&outcome));
    Ok(())
}

/// Pull `"name": {"value": X` out of a result line.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let rest = &line[line.find(&format!("\"{name}\": {{\"value\": "))?..];
    let rest = &rest[rest.find("\"value\": ")? + 9..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// `--repeat N`: run each workload N times as child processes, each with its
/// own seed (as the driver does), and compare every end-to-end metric's
/// quartile spread with its bound. `setup_s` is reported, not judged.
fn self_check(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for &workload in &args.workloads {
        let mut lines = Vec::new();
        for i in 0..args.repeat {
            let out = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &(args.seed + i as u64).to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--scale", if args.scale == Scale::Tiny { "tiny" } else { "full" }])
                .output()
                .map_err(|e| format!("spawn: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or("").to_string();
            if !out.status.success() || !line.contains("\"correct\": true") {
                eprintln!("{}", String::from_utf8_lossy(&out.stderr));
                return Err(format!("{} seed {} failed", workload.name(), args.seed + i as u64));
            }
            lines.push(line);
        }
        println!("{} ({} runs, seeds {}..)", workload.name(), args.repeat, args.seed);
        for m in END_TO_END {
            let mut values: Vec<f64> = lines.iter().filter_map(|l| metric_in(l, m.name)).collect();
            if values.len() != lines.len() || values.len() < 2 {
                return Err(format!("{}: {} missing from a result line", workload.name(), m.name));
            }
            let spread = quartile_spread(&values);
            values.sort_by(|a, b| a.partial_cmp(b).expect("finite metric"));
            let judged = m.name != "setup_s";
            let verdict = match (judged, spread <= m.bound) {
                (false, _) => "reported",
                (true, true) if spread * 3.0 <= m.bound => "steady",
                (true, true) => "within bound",
                (true, false) => {
                    ok = false;
                    "SPREAD EXCEEDS BOUND"
                }
            };
            println!(
                "  {:<22} min {:>12.4} median {:>12.4} max {:>12.4} {:<6} spread {:>7.4} bound {:>5.2}  {}",
                m.name,
                values[0],
                median(&mut values.clone()),
                values[values.len() - 1],
                m.unit,
                spread,
                m.bound,
                verdict
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("wg_bench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("wg_bench: {}", hardware_context());
    if args.repeat > 0 {
        return match self_check(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("wg_bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    for &workload in &args.workloads {
        if let Err(e) = run_once(&args, workload) {
            eprintln!("wg_bench: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
