//! `jt-benchmark` — the repository's one benchmark: seeded, end to end and
//! layer by layer, for ingest, local query and served read/write traffic.
//!
//! ```text
//! jt-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! jt-benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>]   every workload, one document
//! jt-benchmark --self-check [--seed <n>] [--seconds <s>]      A/A and A/B agreement
//! ```
//!
//! With `--workload` the process runs that workload itself and prints, as
//! the last line of stdout, one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics
//! for `--trace 0`, the per-layer metrics for `--trace 1`). Without it,
//! every workload runs in a child process of its own, so peak memory and
//! allocator state are per workload. The human-readable table goes to
//! stderr. See `README.md` for the metric glossary.

mod client;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use metrics::{Better, END_TO_END};
use run::{Outcome, RunConfig};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Workload, WORKLOADS};

/// Measured seconds per run when `--seconds` is absent; `BENCHMARK.json`
/// passes the same value.
const DEFAULT_SECONDS: f64 = 20.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    self_check: bool,
    /// Internal: perform one set-up into this directory and exit.
    prepare_into: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: None,
        self_check: false,
        prepare_into: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--self-check" => args.self_check = true,
            "--prepare-into" => args.prepare_into = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Facts about the machine and build a result is only comparable within.
fn facts(seconds: f64, seed: u64) -> String {
    let flushes: Vec<String> = WORKLOADS
        .iter()
        .map(|w| w.flush_every.to_string())
        .collect();
    let tool = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    format!(
        "{{\"nproc\": {}, \"load_threads\": {}, \"exec_threads\": {}, \"server_workers\": {}, \
         \"client_connections\": 2, \"seconds\": {seconds}, \"seed\": {seed}, \
         \"append_rate_per_s\": {}, \"flush_every_docs\": [{}], \"git_commit\": \"{}\", \"rustc\": \"{}\"}}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        run::LOAD_THREADS,
        run::EXEC_THREADS,
        run::SERVER_WORKERS,
        run::APPEND_RATE,
        flushes.join(", "),
        tool("git", &["rev-parse", "HEAD"]),
        tool("rustc", &["--version"]),
    )
}

/// A directory next to the executable — inside the checkout's build
/// directory — for the saved relation and the span file.
fn scratch_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .unwrap_or(std::path::Path::new("."))
        .join(format!("jt-benchmark-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        o.metrics.to_json()
    )
}

/// Run one workload in this process and print its result line.
fn run_one(w: &Workload, args: &Args) -> ExitCode {
    let trace = args.trace.unwrap_or(false);
    let scratch = match scratch_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("cannot create a scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = RunConfig {
        seconds: args.seconds,
        trace,
    };
    // Each set-up is a child process: generate, render, take the oracle's
    // answers, write them into the scratch directory, exit.
    let mut setup = |cycle: usize| {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let seed = run::cycle_seed(args.seed, cycle);
        let status = Command::new(exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .arg("--prepare-into")
            .arg(&scratch)
            .status()
            .map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("set-up process ended with {status}"));
        }
        run::Prepared::read_from(&scratch)
    };
    let outcome = run::run(w, &cfg, &scratch, &mut setup);
    // The span file of a traced run outlives the scratch directory.
    let spans = scratch.join(format!("spans-{}.jsonl", w.name));
    if let Some(keep) = scratch
        .parent()
        .map(|p| p.join(format!("spans-{}.jsonl", w.name)))
    {
        let _ = std::fs::rename(spans, keep);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    eprintln!(
        "{}: {}\n  seed={} seconds={} trace={} facts={}",
        w.name,
        w.why,
        args.seed,
        args.seconds,
        u8::from(trace),
        facts(args.seconds, args.seed)
    );
    eprint!("{}", outcome.metrics.table());
    for line in &outcome.detail {
        eprintln!("  {line}");
    }
    for note in &outcome.notes {
        eprintln!("  FAILED: {note}");
    }
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run one workload as a child process and return its parsed result line.
fn run_child(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<json_tiles::json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", w.name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc =
        json_tiles::json::parse(line).map_err(|e| format!("{}: bad result line: {e}", w.name))?;
    if !out.status.success() || doc.get("correct").and_then(|c| c.as_bool()) != Some(true) {
        return Err(format!("{} failed its correctness gates", w.name));
    }
    Ok(doc)
}

/// Every workload, each in its own child process; one JSON document.
fn run_all(args: &Args) -> ExitCode {
    let passes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut sections = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut parts = Vec::new();
        for &trace in passes {
            match run_child(w, args.seed, args.seconds, trace) {
                Ok(doc) => parts.push(format!(
                    "\"{}\": {}",
                    if trace { "per_layer" } else { "end_to_end" },
                    json_tiles::json::to_string(&doc)
                )),
                Err(e) => {
                    eprintln!("{e}");
                    ok = false;
                }
            }
        }
        sections.push(format!("\"{}\": {{{}}}", w.name, parts.join(", ")));
    }
    println!(
        "{{\"schema\": \"jt-benchmark/v1\", \"facts\": {}, \"workloads\": {{{}}}}}",
        facts(args.seconds, args.seed),
        sections.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs per set in the self-check. A set's value is its median: one run
/// in ten has a stall somewhere (a 0.3 s publish, a slow second of the
/// machine) that a tail metric rightly shows and a median rightly drops.
const SET_RUNS: usize = 3;

/// Two sets of the end-to-end pass at `seed` and one run at `seed + 1`;
/// fails when the two same-seed sets' medians disagree by more than the
/// metric's bound.
fn self_check(args: &Args) -> ExitCode {
    let value = |doc: &json_tiles::json::Value, name: &str| {
        doc.pointer(&["metrics", name, "value"])
            .and_then(|v| v.as_f64())
    };
    let mut ok = true;
    println!(
        "self-check seed={} seconds={} runs per set={SET_RUNS} facts={}",
        args.seed,
        args.seconds,
        facts(args.seconds, args.seed)
    );
    println!(
        "{:<18} {:<28} {:>12} {:>12} {:>8} {:>6}  {:>12} {:>8}",
        "workload", "metric", "set A", "set B", "|A-B|/A", "bound", "seed+1", "vs A"
    );
    for w in &WORKLOADS {
        // Sets A and B interleaved, then the other seed.
        let seeds = (0..2 * SET_RUNS).map(|_| args.seed).chain([args.seed + 1]);
        let runs: Result<Vec<_>, String> = seeds
            .map(|seed| run_child(w, seed, args.seconds, false))
            .collect();
        let runs = match runs {
            Ok(r) => r,
            Err(e) => {
                println!("{:<18} FAILED: {e}", w.name);
                ok = false;
                continue;
            }
        };
        for &(name, _, better, bound) in END_TO_END {
            let v: Vec<f64> = runs.iter().filter_map(|d| value(d, name)).collect();
            if v.len() != runs.len() {
                println!("{:<18} {name:<28} missing", w.name);
                ok = false;
                continue;
            }
            let set = |first: usize| {
                let picked: Vec<f64> = v[..2 * SET_RUNS]
                    .iter()
                    .skip(first)
                    .step_by(2)
                    .copied()
                    .collect();
                stats::median(&picked)
            };
            let (a, b, c) = (set(0), set(1), v[2 * SET_RUNS]);
            let aa = (a - b).abs() / a.abs().max(1e-12);
            let worse = match better {
                Better::Lower => (c - a) / a.abs().max(1e-12),
                Better::Higher => (a - c) / a.abs().max(1e-12),
            };
            let verdict = if aa > bound { "  DISAGREE" } else { "" };
            ok &= aa <= bound;
            println!(
                "{:<18} {name:<28} {a:>12.4} {b:>12.4} {:>7.2}% {:>5.0}%  {c:>12.4} {:>+7.2}%{verdict}",
                w.name,
                100.0 * aa,
                100.0 * bound,
                100.0 * worse
            );
        }
    }
    println!(
        "{}",
        if ok {
            "self-check passed"
        } else {
            "self-check FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: jt-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--self-check]");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(&args);
    }
    match &args.workload {
        None => run_all(&args),
        Some(name) => match (Workload::by_name(name), &args.prepare_into) {
            (Some(w), None) => run_one(w, &args),
            (Some(w), Some(dir)) => {
                let done = run::prepare(w, args.seed)
                    .and_then(|p| p.write_to(dir).map_err(|e| e.to_string()));
                match done {
                    Ok(()) => ExitCode::SUCCESS,
                    Err(e) => {
                        eprintln!("set-up failed: {e}");
                        ExitCode::from(1)
                    }
                }
            }
            (None, _) => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload {name}; one of {}", names.join(", "));
                ExitCode::from(2)
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json_tiles::json::{parse, Value};
    use metrics::PER_LAYER;
    use std::collections::BTreeSet;

    fn manifest() -> Value {
        parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json is JSON")
    }

    fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
        doc.get(key)
            .and_then(|v| v.as_array())
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    fn text<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(|s| s.as_str())
            .unwrap_or_else(|| panic!("{key} missing"))
    }

    #[test]
    fn manifest_and_tables_name_the_same_things() {
        let doc = manifest();
        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, &(name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit, "{name}");
            assert_eq!(
                text(entry, "better") == "lower",
                better == Better::Lower,
                "{name}"
            );
            assert_eq!(
                entry.get("bound").and_then(|b| b.as_f64()),
                Some(bound),
                "{name}"
            );
        }
        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, &(name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(entry, "name"), name);
            assert_eq!(text(entry, "unit"), unit, "{name}");
            assert_eq!(
                text(entry, "better") == "lower",
                better == Better::Lower,
                "{name}"
            );
        }
        let listed = entries(&doc, "workloads");
        assert_eq!(listed.len(), WORKLOADS.len());
        for (entry, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(entry, "name"), w.name);
            assert_eq!(text(entry, "why"), w.why);
        }
        let seconds = doc.get("run_seconds").and_then(|s| s.as_f64());
        assert_eq!(seconds, Some(DEFAULT_SECONDS));
        let paths: Vec<&str> = entries(&doc, "paths")
            .iter()
            .filter_map(|p| p.as_str())
            .collect();
        assert_eq!(paths, ["benchmark"]);
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Better::Lower));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload query_local --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("query_local"), 7, 2.5, Some(true))
        );
        let d = parse_args(&[]).unwrap();
        assert_eq!(
            (d.workload, d.seconds, d.trace, d.self_check),
            (None, DEFAULT_SECONDS, None, false)
        );
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--seconds 61",
            "--bogus",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    /// Every statement of every mix compiles and returns rows on a small
    /// collection (TPC-H at `scale: 0.05`): set-up refuses a statement the
    /// oracle answers with nothing.
    #[test]
    fn statements_return_rows_on_small_collections() {
        for w in &WORKLOADS {
            let size = match w.dataset {
                workloads::Dataset::TpchOrdered | workloads::Dataset::TpchShuffled => 0.05,
                _ => w.size * 0.05,
            };
            if let Err(e) = run::prepare(&Workload { size, ..*w }, 9) {
                panic!("{}: {e}", w.name);
            }
        }
    }

    /// One test, because the traced pass switches the process-wide `jt_obs`
    /// registry on and off: tiny-scale runs of every workload, each pass
    /// reporting exactly the names `BENCHMARK.json` declares for it.
    #[test]
    fn smoke_runs_report_exactly_the_declared_metrics() {
        let dir = std::env::current_exe()
            .unwrap()
            .parent()
            .unwrap()
            .join(format!("smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let declared = |key: &str| -> BTreeSet<String> {
            entries(&manifest(), key)
                .iter()
                .map(|e| text(e, "name").to_string())
                .collect()
        };
        for (i, w) in WORKLOADS.iter().enumerate() {
            // A quarter of the collection, and flushes frequent enough
            // that even a fifth-of-a-second session publishes.
            let w = &Workload {
                size: w.size * 0.25,
                flush_every: 20,
                ..*w
            };
            // Alternate the passes over the workloads; the last runs both.
            let passes: &[bool] = match i {
                4 => &[false, true],
                i if i % 2 == 0 => &[false],
                _ => &[true],
            };
            for &trace in passes {
                let cfg = RunConfig {
                    seconds: 3.0,
                    trace,
                };
                let mut setup = |cycle: usize| {
                    let p = run::prepare(w, run::cycle_seed(5, cycle))?;
                    // Through the files, as the benchmark's child process does.
                    p.write_to(&dir).map_err(|e| e.to_string())?;
                    run::Prepared::read_from(&dir)
                };
                let o = run::run(w, &cfg, &dir, &mut setup);
                assert_eq!(o.failed, 0, "{} trace={trace}: {:?}", w.name, o.notes);
                assert!(o.attempted > 0);
                let names: BTreeSet<String> = o.metrics.0.keys().map(|k| k.to_string()).collect();
                let want = declared(if trace { "per_layer" } else { "end_to_end" });
                assert_eq!(names, want, "{} trace={trace}", w.name);
                let line = parse(&result_line(&o)).expect("result line is JSON");
                let Value::Object(fields) = &line else {
                    panic!("result line is not an object")
                };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if trace {
                    let share = o.metrics.0["server.phase_sum_share"].value;
                    assert!(share > 0.0 && share <= 1.0, "phase sum share {share}");
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
