//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! pimbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! The simulator's replay pool is pinned to one thread, so host times on
//! a shared machine measure the program rather than the scheduler.
//!
//! The last line of standard output is the JSON result. A wrong answer
//! exits with code 1, a usage or library error with code 2.

use std::process::ExitCode;

use pimbench::metrics::{result_json, END_TO_END, PER_LAYER};
use pimbench::{Options, Size};

struct Args {
    workload: String,
    opts: Options,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: pimbench::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        threads: 1,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => opts.trace = value == "1",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, opts })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pimbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match pimbench::run(&args.workload, args.opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("pimbench {}: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let stamp: Vec<String> = out
        .stamp
        .pairs()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!(
        "workload={} {} steal_pct={:.2}",
        args.workload,
        stamp.join(" "),
        out.steal_pct
    );
    let rounds: Vec<String> = out.round_host_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("round host seconds: {}", rounds.join(" "));
    let defs = if args.opts.trace {
        PER_LAYER
    } else {
        END_TO_END
    };
    for d in defs {
        println!(
            "  {:<28} {:>16.6} {}",
            d.name,
            out.metrics.get(d.name).unwrap_or(0.0),
            d.unit
        );
    }
    if let Some(json) = &out.trace_json {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        let path = format!("{dir}/trace-{}-seed{}.json", args.workload, args.opts.seed);
        match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
            Ok(()) => println!("trace: {path}"),
            Err(e) => eprintln!("pimbench: writing {path}: {e}"),
        }
    }
    for p in &out.problems {
        println!("WRONG: {p}");
    }
    let correct = out.problems.is_empty() && out.metrics.all_finite();
    println!(
        "{}",
        result_json(correct, out.attempted, out.failed, &out.metrics, defs)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
