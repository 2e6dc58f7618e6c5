//! The RF-Prism benchmark: seeded simulator reads in, position,
//! orientation and material out, through the public library API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! `--trace 0` times the untraced ops and prints the end-to-end metrics;
//! `--trace 1` alternates untraced and traced passes and prints the
//! per-layer split. The last line of standard output is the result as
//! one JSON object. See `README.md` beside this crate.

mod alloc;
mod batch2d;
mod compact;
mod harness;
mod layers;
mod material;
mod stream;
mod volume;

use harness::{Outcome, Size};
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 4] = [
    "inventory_cold",
    "rescan_dense_warm",
    "tracking_stream",
    "volume_3d",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}: 0 or 1")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("bad --size {value}: full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        size,
    })
}

/// Generates the seeded inputs, measures, then (untraced only) scores the
/// accuracy corpus. The seeded inputs are dropped before the corpus is
/// generated, so the two never share the heap.
macro_rules! measure {
    ($a:expr, $gen:expr, $setup:expr) => {{
        let mut outcome = {
            let inputs = $gen($a.seed);
            harness::run($a.seconds, $a.trace, inputs.ops_per_pass(), || {
                $setup(&inputs)
            })
        };
        if !$a.trace {
            let corpus = $gen(harness::ACCURACY_SEED);
            harness::corpus_accuracy($setup(&corpus), &mut outcome);
        }
        outcome
    }};
}

fn run(a: &Args) -> Outcome {
    let size = a.size;
    match a.workload.as_str() {
        "inventory_cold" => measure!(
            a,
            |seed| batch2d::Inputs::inventory_cold(seed, size),
            batch2d::Batch2d::setup
        ),
        "rescan_dense_warm" => measure!(
            a,
            |seed| batch2d::Inputs::rescan_dense_warm(seed, size),
            batch2d::Batch2d::setup
        ),
        "tracking_stream" => {
            measure!(
                a,
                |seed| stream::Inputs::generate(seed, size),
                stream::Stream::setup
            )
        }
        "volume_3d" => {
            measure!(
                a,
                |seed| volume::Inputs::generate(seed, size),
                volume::Volume::setup
            )
        }
        _ => unreachable!("workload names are checked by parse"),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = run(&a);
    // JSON has no NaN or infinity: such a value fails the run and prints as 0.
    for m in &mut outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    println!(
        "# {} seed {} seconds {} trace {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<32} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for p in &outcome.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", result_json(&outcome, outcome.problems.is_empty()));
    ExitCode::SUCCESS
}
