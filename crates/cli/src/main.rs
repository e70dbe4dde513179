//! The `atomig` binary. See [`atomig_cli`] for the command surface.

#![forbid(unsafe_code)]

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match atomig_cli::parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", atomig_cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let file = match &cmd {
        atomig_cli::Command::Help => {
            println!("{}", atomig_cli::USAGE);
            return ExitCode::SUCCESS;
        }
        atomig_cli::Command::Batch { path, .. } => {
            let inputs = match atomig_cli::discover_batch_inputs(path) {
                Ok(i) => i,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            return match atomig_cli::execute_batch(&cmd, &inputs) {
                Ok(out) => {
                    println!("{out}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        atomig_cli::Command::Port { file, .. }
        | atomig_cli::Command::Check { file, .. }
        | atomig_cli::Command::Run { file, .. }
        | atomig_cli::Command::Lint { file, .. }
        | atomig_cli::Command::Explain { file, .. }
        | atomig_cli::Command::Metrics { file } => file.clone(),
    };
    let source = match atomig_cli::read_source(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match atomig_cli::execute(&cmd, &source, atomig_cli::module_name(&file)) {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
