//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a report, then as its last line one JSON object with `correct`,
//! `attempted`, `failed` and the metrics. Exits non-zero when a check
//! fails. Scratch files go to `.bench_work/` under the current directory;
//! the traced run leaves its spans there as a TSV file.

use perfbench::report::json_line;
use perfbench::workload::{self, Run, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload fig11_paper|campaign_cold|campaign_warm \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0);
                seconds = Some(s.ok_or_else(bad)?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let dir = PathBuf::from(".bench_work").join(format!(
        "{}-{seed}-{}",
        workload.name(),
        std::process::id()
    ));
    Ok(Run {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::FULL,
        dir,
    })
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&run.dir) {
        eprintln!("perfbench: cannot create {}: {e}", run.dir.display());
        return ExitCode::FAILURE;
    }
    let result = workload::run(&run);
    let _ = std::fs::remove_dir_all(&run.dir);
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mode = if run.trace { "traced" } else { "untraced" };
    println!(
        "perfbench {} seed {} ({mode}, {} s, campaign pool workers {})",
        run.workload.name(),
        run.seed,
        run.seconds,
        run.sizes.jobs
    );
    for m in &out.metrics {
        println!("{:<22} {:>14.6} {}", m.name, m.value, m.unit);
    }
    for line in &out.notes {
        println!("{line}");
    }
    if run.trace && !out.spans.is_empty() {
        let path = PathBuf::from(".bench_work").join(format!(
            "spans-{}-{}.tsv",
            run.workload.name(),
            run.seed
        ));
        match perfbench::spans::write_tsv(&path, &out.spans) {
            Ok(()) => println!("spans of the last traced pass: {}", path.display()),
            Err(e) => println!("cannot write spans to {}: {e}", path.display()),
        }
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    println!(
        "{}",
        json_line(out.correct(), out.attempted, out.failed, &out.metrics)
    );
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
