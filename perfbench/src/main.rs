//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]`
//!
//! Prints context lines starting with `#`, one `name value unit` line per
//! metric (`(printed only)` after the figures that are not in
//! `BENCHMARK.json`), and as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when an output
//! check fails and 2 on bad arguments or a failed set-up.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::run::{run_traced, run_untraced, Report, RunError};
use perfbench::spec::{Spec, Workload, SESSIONS};

const USAGE: &str =
    "usage: perfbench --workload <read-secure|write-secure|mixed-gateway> --seed <n> \
     --seconds <s> --trace <0|1> [--tiny]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = argv.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tiny,
    })
}

fn json_line(correct: bool, report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let parallelism = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "# workload {} seed {} seconds {} trace {} sessions {SESSIONS} (closed loop) \
         available_parallelism {parallelism}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.tiny { " tiny" } else { "" }
    );
    let spec = Spec::new(args.workload, args.seed, args.tiny);
    let result = if args.trace {
        let spans = PathBuf::from(".bench_build/perfbench-spans").join(format!(
            "{}-seed{}.tsv",
            args.workload.name(),
            args.seed
        ));
        run_traced(spec, args.seconds, &spans)
    } else {
        run_untraced(spec, args.seconds)
    };
    match result {
        Ok(report) => {
            for note in &report.notes {
                println!("# {note}");
            }
            for m in &report.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            for m in &report.printed {
                println!("{} {} {} (printed only)", m.name, m.value, m.unit);
            }
            println!("{}", json_line(true, &report));
            ExitCode::SUCCESS
        }
        Err(RunError::Violation(violation)) => {
            println!("# OUTPUT CHECK FAILED: {violation}");
            println!("{}", json_line(false, &Report::default()));
            ExitCode::from(1)
        }
        Err(RunError::Setup(err)) => {
            eprintln!("set-up failed: {err}");
            ExitCode::from(2)
        }
    }
}
