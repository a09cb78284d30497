//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). Progress
//! and the traced run's self-time table go to standard error. A run that
//! cannot be measured (the server does not start, the open-loop
//! generator falls behind) prints no result and exits with status 1.

use tangled_perfbench::gen::Workload;
use tangled_perfbench::{workload, Outcome};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 14u64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds wants an integer > 0")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut outcome = match (args.workload, args.trace) {
        (w, false) => workload::run(w, args.seed, args.seconds)?,
        (w, true) => workload::run_traced(w, args.seed, args.seconds)?,
    };
    if !args.trace {
        let ok = outcome.ok_ratio();
        outcome.metric("ok_ratio", ok, "ratio");
    }
    if let Some((name, _)) = outcome.metrics.iter().find(|(_, (v, _))| !v.is_finite()) {
        return Err(format!("metric {name} could not be measured"));
    }
    Ok(outcome)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&args).and_then(|a| run(&a));
    match outcome {
        Ok(o) => {
            if !o.correct {
                eprintln!("perfbench: answers did not match the oracle: run is not correct");
            }
            println!("{}", o.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
