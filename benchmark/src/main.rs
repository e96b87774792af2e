//! The repository's benchmark: one deployment-path harness with a layer
//! ledger. See `benchmark/README.md` for the workloads, the metric
//! catalogue and how to read the output; `BENCHMARK.json` at the root
//! of the repository declares the command, the workloads and every
//! metric with its unit, direction and regression bound.
//!
//! ```text
//! drbac-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                 [--quick] --drbac-bin <path> [--out <dir>]
//! ```
//!
//! Prints a human-readable table (and, traced, the ledger) to stderr,
//! writes `<out>/result-<workload>-trace<0|1>.json` (and
//! `<out>/trace-<workload>.jsonl`), and prints as the last line of
//! stdout one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod bench;
mod catalogue;
mod client;
mod deploy;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Config, Outcome};
use catalogue::{END_TO_END, PER_LAYER};
use deploy::Environment;
use stats::{json_num, json_str, Metric};

const DEFAULT_SEED: u64 = 2002;
const DEFAULT_SECONDS: f64 = 15.0;
const USAGE: &str = "usage: drbac-benchmark --workload <guard_strict|coalition_mix|front_door|discovery> \
                     [--seed N] [--seconds S] [--trace 0|1] [--quick] --drbac-bin <path> [--out <dir>]";

struct Args {
    workload: String,
    cfg: Config,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        drbac_bin: PathBuf::new(),
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds_given = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}\n{USAGE}"));
        match flag.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                seconds_given = true;
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => cfg.quick = true,
            "--drbac-bin" => cfg.drbac_bin = value("a path")?.into(),
            "--out" => cfg.out = value("a directory")?.into(),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if cfg.quick && !seconds_given {
        cfg.seconds = 1.0;
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    if !cfg.drbac_bin.is_file() {
        return Err(format!(
            "--drbac-bin {:?} is not a file\n{USAGE}",
            cfg.drbac_bin
        ));
    }
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required\n{USAGE}"))?,
        cfg,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let cfg = &args.cfg;
    if let Err(e) = std::fs::create_dir_all(&cfg.out) {
        eprintln!("cannot create {:?}: {e}", cfg.out);
        return ExitCode::from(2);
    }
    let env = Environment::probe(&cfg.out);
    let outcome = match args.workload.as_str() {
        "guard_strict" => workloads::guard_strict::run(cfg),
        "coalition_mix" => workloads::coalition_mix::run(cfg),
        "front_door" => workloads::front_door::run(cfg),
        "discovery" => workloads::discovery::run(cfg),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            // No result line: the driver must see a failed run, not a
            // measurement of a broken one.
            eprintln!("benchmark aborted: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(tracer) = outcome.tracer.take() {
        let path = cfg.out.join(format!("trace-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "{} spans recorded; span file {}",
                tracer.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
        }
    }
    let end_to_end = outcome.metrics.in_order(END_TO_END);
    let per_layer = outcome.metrics.in_order(PER_LAYER);
    let correct = outcome.oracle.failed == 0;

    eprint!(
        "{}",
        render_table(&args, &env, &outcome, &end_to_end, &per_layer)
    );
    let result = result_json(&args, &env, &outcome, &end_to_end, &per_layer);
    let path = cfg.out.join(format!(
        "result-{}-trace{}.json",
        args.workload,
        u8::from(cfg.trace)
    ));
    if let Err(e) = std::fs::write(&path, result) {
        eprintln!("warning: cannot write {}: {e}", path.display());
    }

    let printed = if cfg.trace { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.oracle.attempted.max(1),
        outcome.oracle.failed,
        printed
            .iter()
            .map(|m| format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::SUCCESS
}

/// The human-readable report: environment, every metric by name with
/// its unit, round quartiles and sample count, failures, the ledger.
fn render_table(
    args: &Args,
    env: &Environment,
    outcome: &Outcome,
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> String {
    let cfg = &args.cfg;
    let mut out = format!(
        "== {} == seed {} · {} s · trace {} · {}\n\
         commit {} · kernel {} · nproc {} · cpus allowed {} ({}) · homes on {} · \
         fsync policy: group_commit = 1 (fsync per write) · build profile: release\n",
        args.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick {
            "QUICK (bounds not enforced)"
        } else {
            "full size"
        },
        env.git_commit,
        env.kernel,
        env.nproc,
        env.allowed_cpus,
        match env.pinned_cpu() {
            Some(cpu) => format!("pinned to cpu {cpu}"),
            None => "not pinned".into(),
        },
        env.home_fs,
    );
    for (k, v) in &outcome.notes {
        out.push_str(&format!("{k} = {v} · "));
    }
    out.push('\n');
    let mut section = |title: &str, metrics: &[Metric]| {
        out.push_str(&format!(
            "-- {title}\n{:<38} {:>14} {:<6} {:>12} {:>12} {:>12} {:>7} {:>9}\n",
            "metric", "value", "unit", "round q1", "median", "q3", "rounds", "samples"
        ));
        for m in metrics.iter().filter(|m| m.samples > 0) {
            out.push_str(&format!(
                "{:<38} {:>14.3} {:<6} {:>12.3} {:>12.3} {:>12.3} {:>7} {:>9}\n",
                m.name, m.value, m.unit, m.q1, m.median, m.q3, m.rounds, m.samples
            ));
        }
        let idle: Vec<&str> = metrics
            .iter()
            .filter(|m| m.samples == 0)
            .map(|m| m.name)
            .collect();
        if !idle.is_empty() {
            out.push_str(&format!(
                "   (not exercised here, read 0: {})\n",
                idle.join(", ")
            ));
        }
    };
    section("end to end", end_to_end);
    section("per layer", per_layer);
    for ledger in &outcome.ledgers {
        out.push_str(&ledger.render());
    }
    out.push_str(&format!(
        "attempted {} · failed {} · {}\n",
        outcome.oracle.attempted,
        outcome.oracle.failed,
        if outcome.oracle.failed == 0 {
            "CORRECT"
        } else {
            "INCORRECT"
        }
    ));
    for note in &outcome.oracle.notes {
        out.push_str(&format!("  failure: {note}\n"));
    }
    out
}

/// The full result record written beside the span file.
fn result_json(
    args: &Args,
    env: &Environment,
    outcome: &Outcome,
    end_to_end: &[Metric],
    per_layer: &[Metric],
) -> String {
    let cfg = &args.cfg;
    let metrics = |ms: &[Metric]| {
        ms.iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"rounds\": {}, \"samples\": {}}}",
                    json_str(m.name),
                    json_num(m.value),
                    json_str(m.unit),
                    json_num(m.q1),
                    json_num(m.median),
                    json_num(m.q3),
                    m.rounds,
                    m.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let notes = outcome
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"quick\": {},\n  \
         \"environment\": {{\"git_commit\": {}, \"kernel\": {}, \"nproc\": {}, \"allowed_cpus\": {}, \
         \"pinned\": {}, \"pinned_cpu\": {}, \"home_fs\": {}, \
         \"fsync_policy\": \"group_commit = 1 (fsync per write)\", \"build_profile\": \"release\"}},\n  \
         \"notes\": {{{notes}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failures\": [{}],\n  \
         \"end_to_end\": {{\n{}\n  }},\n  \"per_layer\": {{\n{}\n  }}\n}}\n",
        json_str(&args.workload),
        cfg.seed,
        json_num(cfg.seconds),
        cfg.trace,
        cfg.quick,
        json_str(&env.git_commit),
        json_str(&env.kernel),
        env.nproc,
        json_str(&env.allowed_cpus),
        env.pinned_cpu().is_some(),
        env.pinned_cpu().map_or("null".into(), |c| c.to_string()),
        json_str(&env.home_fs),
        outcome.oracle.attempted,
        outcome.oracle.failed,
        outcome.oracle.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(", "),
        metrics(end_to_end),
        metrics(per_layer),
    )
}
