//! The `rf-prism` command-line entry point. All logic lives in
//! `rfp_cli::commands` so it is unit-testable; this file only routes.

use rfp_cli::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => commands::simulate(&args[1..]),
        Some("sense") => commands::sense_cli(&args[1..]),
        Some("stream") => commands::stream(&args[1..]),
        Some("calibrate") => commands::calibrate(&args[1..]),
        Some("help") | None => Ok(commands::usage()),
        Some(other) => Err(commands::CommandError::Usage(format!(
            "unknown subcommand `{other}`\n\n{}",
            commands::usage()
        ))),
    };
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
