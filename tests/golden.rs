//! Golden outputs: every `examples/*.c` through the user-facing CLI
//! surfaces, byte-compared against the files in `tests/golden/`.
//!
//! The files were produced by the `atomig` binary with
//! `ATOMIG_DETERMINISTIC=1`, which makes every timing field a count of
//! clock reads, so a change that reads the clock more or less often shows
//! up here too. Each `.txt` file is the command's standard output, or,
//! for a `check` that finds a violation, the error text `atomig` prints
//! after `error: `. Each `.jsonl` file is the stream `--emit-metrics`
//! wrote. To regenerate one after an intended output change, run the
//! command it names, e.g.
//!
//! ```text
//! ATOMIG_DETERMINISTIC=1 atomig lint examples/mp.c --alias points-to > tests/golden/mp.lint-pt.txt
//! ```

use atomig_cli::{execute, module_name, parse_args};
use std::path::{Path, PathBuf};

const EXAMPLES: &[&str] = &["mp", "seqlock", "seqlock_alias", "tas_lock"];

/// Golden file suffix → command line (`{}` is the example path).
const TEXT_VARIANTS: &[(&str, &str)] = &[
    ("port", "port {} --report --trace"),
    ("port-ir", "port {}"),
    ("port-pt", "port {} --alias points-to --report --trace"),
    ("lint", "lint {}"),
    ("lint-ported", "lint {} --ported"),
    ("lint-pt", "lint {} --alias points-to"),
    ("lint-pt-ported", "lint {} --alias points-to --ported"),
    ("explain", "explain {}"),
    ("explain-pt", "explain {} --alias points-to"),
    ("check-arm", "check {} --model arm"),
    ("check-arm-ported", "check {} --model arm --ported"),
    ("check-tso", "check {} --model tso"),
];

/// Golden file suffix → command line whose `--emit-metrics` stream is
/// compared (`{}` is the example path, `{out}` the stream's path).
const METRICS_VARIANTS: &[(&str, &str)] = &[
    ("port", "port {} --report --emit-metrics {out}"),
    ("lint", "lint {} --emit-metrics {out}"),
    (
        "port-pt",
        "port {} --alias points-to --report --emit-metrics {out}",
    ),
    ("lint-pt", "lint {} --alias points-to --emit-metrics {out}"),
    (
        "check-arm-ported",
        "check {} --model arm --ported --emit-metrics {out}",
    ),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The command line of a variant on one example.
fn command(variant: &str, example: &str) -> String {
    variant.replace("{}", &format!("examples/{example}.c"))
}

/// Runs one command line the way the binary does and returns its stdout
/// (or a `check`'s violation text).
fn run(line: &str, example: &str) -> String {
    std::env::set_var("ATOMIG_DETERMINISTIC", "1");
    let file = format!("examples/{example}.c");
    let args: Vec<String> = line.split_whitespace().map(String::from).collect();
    let cmd = parse_args(&args).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    let source = std::fs::read_to_string(root().join(&file)).expect("example exists");
    let out = match execute(&cmd, &source, module_name(&file)) {
        Ok(out) => out,
        Err(e) if line.starts_with("check ") => e,
        Err(e) => panic!("`{line}`: {e}"),
    };
    format!("{out}\n")
}

fn golden(example: &str, suffix: &str, ext: &str) -> (PathBuf, String) {
    let path = root().join(format!("tests/golden/{example}.{suffix}.{ext}"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    (path, text)
}

#[test]
fn cli_text_outputs_match_the_golden_files() {
    for example in EXAMPLES {
        for (suffix, variant) in TEXT_VARIANTS {
            let (path, want) = golden(example, suffix, "txt");
            let line = command(variant, example);
            let got = run(&line, example);
            assert!(
                got == want,
                "`{line}` differs from {}:\n--- want\n{want}\n--- got\n{got}",
                path.display()
            );
        }
    }
}

#[test]
fn metrics_streams_match_the_golden_files() {
    for example in EXAMPLES {
        for (suffix, variant) in METRICS_VARIANTS {
            let (path, want) = golden(example, suffix, "jsonl");
            let out = std::env::temp_dir().join(format!(
                "atomig-golden-{}-{example}-{suffix}.jsonl",
                std::process::id()
            ));
            let line = command(variant, example).replace("{out}", out.to_str().unwrap());
            run(&line, example);
            let got = std::fs::read_to_string(&out).expect("metrics stream written");
            std::fs::remove_file(&out).ok();
            assert!(
                got == want,
                "`{line}` stream differs from {}:\n--- want\n{want}\n--- got\n{got}",
                path.display()
            );
        }
    }
}
