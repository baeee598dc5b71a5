//! `mant-benchmark`: end-to-end and per-layer benchmark of the M-ANT
//! serving stack. See `README.md` for the workloads, the metric glossary
//! and how to run and compare.
//!
//! ```text
//! mant-benchmark --workload W --seed N --seconds S --trace 0|1   one run, JSON on the last line
//! mant-benchmark --all [--seed N] [--rounds R] [--trace] [--out FILE]
//! mant-benchmark --smoke                                         1 round, 1/8 of the requests
//! mant-benchmark --compare A.json B.json
//! ```

mod host;
mod measure;
mod probes;
mod report;
mod rng;
mod run;
mod spans;
mod sse;
mod stack;
mod stats;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mant_gateway::Json;

use host::Canary;
use report::{metrics_json, print_table, Metrics, E2E, PER_LAYER};
use run::{end_to_end, per_layer, setups, Session, SETUPS};
use workload::{spec_by_name, Spec, SPECS};

/// Rounds per workload of `--all` when `--rounds` is not given.
const DEFAULT_ROUNDS: usize = 24;
const DEFAULT_SEED: u64 = 11;

fn finite(metrics: &Metrics) -> Result<(), String> {
    match metrics.iter().find(|(_, v)| !v.value.is_finite()) {
        Some((name, _)) => Err(format!("{name} has no finite value (no request finished?)")),
        None => Ok(()),
    }
}

/// One run as the acceptance harness drives it; the result is the last
/// line of standard output. `started` is when the process started: the
/// set-ups, the oracle and every round fit inside `seconds` from there.
fn run_single(
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    started: Instant,
) -> Result<bool, String> {
    let outcome = if trace {
        // A fixed amount of work (21-34 s), not a number of rounds.
        let (stack, _) = setups(&spec, 1);
        let o = per_layer(&stack, spec, seed, 1);
        print_table(
            &format!("{} per-layer (seed {seed})", spec.name),
            PER_LAYER.iter().map(|d| (d.name, d.better)),
            &o.metrics,
        );
        o
    } else {
        let (stack, setup_s) = setups(&spec, SETUPS);
        let mut session = Session::new(&stack, spec, seed, 1);
        let mut canary = Canary::default();
        let mut longest = 0.0f64;
        loop {
            let t = Instant::now();
            session.run_round(&stack, &mut canary);
            longest = longest.max(t.elapsed().as_secs_f64());
            // Rounds are whole: stop when another, a tenth slower than the
            // slowest so far, would overrun the time.
            if started.elapsed().as_secs_f64() + 1.1 * longest > seconds {
                break;
            }
        }
        let o = end_to_end(&stack, &session, &setup_s);
        print_table(
            &format!(
                "{} end-to-end (seed {seed}, {} rounds{})",
                spec.name,
                session.rounds.stats.len(),
                if canary.noisy() { ", noisy" } else { "" }
            ),
            E2E.iter().map(|d| (d.name, d.better)),
            &o.metrics,
        );
        o
    };
    finite(&outcome.metrics)?;
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics, false)
    );
    Ok(outcome.correct)
}

struct AllOptions {
    seed: u64,
    rounds: usize,
    trace: bool,
    shrink: usize,
    out: Option<PathBuf>,
}

/// Every workload in one command: rounds interleaved across workloads so
/// a slow stretch of the host lands on all of them alike.
fn run_all(opt: &AllOptions) -> Result<bool, String> {
    let setup_count = if opt.shrink > 1 { 1 } else { SETUPS };
    // Set-up differs only by serving path; the three socket workloads
    // share one measurement, the in-process workload has its own.
    let (stack, gateway_setup) = setups(&SPECS[0], setup_count);
    let (_, engine_setup) = setups(&SPECS[3], setup_count);
    let mut sessions: Vec<Session> = SPECS
        .iter()
        .map(|&s| Session::new(&stack, s, opt.seed, opt.shrink))
        .collect();
    let mut canary = Canary::default();
    for _ in 0..opt.rounds {
        for session in &mut sessions {
            session.run_round(&stack, &mut canary);
        }
    }
    let mut all_correct = true;
    let mut docs = Vec::new();
    for session in &sessions {
        let setup_s = if session.spec.via_gateway {
            &gateway_setup
        } else {
            &engine_setup
        };
        let o = end_to_end(&stack, session, setup_s);
        finite(&o.metrics)?;
        all_correct &= o.correct;
        print_table(
            &format!(
                "{} end-to-end (seed {}, {} rounds, {} sent, {} failed)",
                session.spec.name, opt.seed, opt.rounds, o.attempted, o.failed
            ),
            E2E.iter().map(|d| (d.name, d.better)),
            &o.metrics,
        );
        let mut doc = format!(
            "\"{}\":{{\"correct\":{},\"attempted\":{},\"failed\":{},\"end_to_end\":{}",
            session.spec.name,
            o.correct,
            o.attempted,
            o.failed,
            metrics_json(&o.metrics, true)
        );
        if opt.trace {
            let layer = per_layer(&stack, session.spec, opt.seed, opt.shrink);
            finite(&layer.metrics)?;
            all_correct &= layer.correct;
            print_table(
                &format!("{} per-layer", session.spec.name),
                PER_LAYER.iter().map(|d| (d.name, d.better)),
                &layer.metrics,
            );
            doc.push_str(&format!(
                ",\"per_layer\":{}",
                metrics_json(&layer.metrics, false)
            ));
        }
        doc.push('}');
        docs.push(doc);
    }
    println!(
        "host canary: min {:.3} ms, spread {:.3}{}",
        canary.min_ms(),
        canary.spread(),
        if canary.noisy() { " — noisy" } else { "" }
    );
    if let Some(path) = &opt.out {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        // The shape `aa.sh` writes with one entry per run, so `--compare`
        // reads either.
        let doc = format!(
            "{{\"runs\":[\n{{\"seed\":{},\"rounds\":{},\"noisy\":{},\"workloads\":{{{}}}}}\n]}}\n",
            opt.seed,
            opt.rounds,
            canary.noisy(),
            docs.join(",")
        );
        std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

const USAGE: &str = "usage:
  mant-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  mant-benchmark --all [--seed <n>] [--rounds <r>] [--trace] [--out <file>]
  mant-benchmark --smoke
  mant-benchmark --compare <A.json> <B.json>
workloads: short_chat long_prompt mixed_long prefix_batch";

fn real_main() -> Result<bool, String> {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut all, mut smoke, mut trace) = (None, false, false, false);
    let (mut seed, mut seconds, mut rounds) = (DEFAULT_SEED, 20.0, DEFAULT_ROUNDS);
    let mut out = None;
    let mut compare = None;
    let mut i = 0;
    let value = |i: &mut usize| -> Result<&String, String> {
        *i += 1;
        args.get(*i)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", args[*i - 1]))
    };
    fn parse<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
        s.parse()
            .map_err(|_| format!("{flag}: cannot read {s:?}\n{USAGE}"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => workload = Some(value(&mut i)?.clone()),
            "--seed" => seed = parse("--seed", value(&mut i)?)?,
            "--seconds" => seconds = parse("--seconds", value(&mut i)?)?,
            "--rounds" => rounds = parse("--rounds", value(&mut i)?)?,
            "--out" => out = Some(PathBuf::from(value(&mut i)?)),
            "--all" => all = true,
            "--smoke" => smoke = true,
            // `--trace` alone switches tracing on; the harness passes 0 or 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => i += 1,
                Some("1") => {
                    trace = true;
                    i += 1;
                }
                _ => trace = true,
            },
            "--compare" => {
                let a = value(&mut i)?.clone();
                compare = Some((a, value(&mut i)?.clone()));
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
        i += 1;
    }
    if let Some((a, b)) = compare {
        let bad = report::compare(&read_json(&a)?, &read_json(&b)?)?;
        println!("{bad} row(s) not ok");
        return Ok(bad == 0);
    }
    if let Some(name) = workload {
        let spec =
            spec_by_name(&name).ok_or_else(|| format!("unknown workload {name:?}\n{USAGE}"))?;
        return run_single(spec, seed, seconds, trace, started);
    }
    if all || smoke {
        if rounds == 0 {
            return Err("--rounds must be at least 1".to_owned());
        }
        return run_all(&AllOptions {
            seed,
            rounds: if smoke { 1 } else { rounds },
            trace,
            shrink: if smoke { 8 } else { 1 },
            out,
        });
    }
    Err(USAGE.to_owned())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("FAILED: outputs incorrect, requests failed, or a comparison row is not ok");
            ExitCode::from(1)
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
    }
}
