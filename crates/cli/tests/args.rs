//! The argument parser's error surface: every parse error's exact text,
//! and seeded argument-vector mutants that must parse or fail by name,
//! never panic.

use atomig_cli::parse_args;
use atomig_testutil::Rng;

fn args(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Command line → the exact `Err` text `parse_args` returns for it.
const ERRORS: &[(&str, &str)] = &[
    // Unknown command.
    (
        "frobnicate",
        "unknown command `frobnicate` (try `atomig help`)",
    ),
    ("--port a.c", "unknown command `--port` (try `atomig help`)"),
    // Missing input.
    ("port", "port: missing input file"),
    ("check", "check: missing input file"),
    ("run", "run: missing input file"),
    ("lint", "lint: missing input file"),
    ("batch", "batch: missing input directory, manifest, or file"),
    ("explain", "explain: missing input location (file.c[:LINE])"),
    ("metrics", "metrics: missing input file"),
    ("port --report", "port: missing input file"),
    (
        "lint --ported --alias points-to",
        "lint: missing input file",
    ),
    // Missing values.
    ("port a.c --stage", "--stage needs a value"),
    ("port a.c --alias", "--alias needs a value"),
    ("port a.c --emit-metrics", "--emit-metrics needs a path"),
    ("check a.c --model", "--model needs a value"),
    ("check a.c --emit-metrics", "--emit-metrics needs a path"),
    ("lint a.c --alias", "--alias needs a value"),
    ("lint a.c --deny", "--deny needs a value"),
    ("lint a.c --emit-metrics", "--emit-metrics needs a path"),
    ("batch d --stage", "--stage needs a value"),
    ("batch d --alias", "--alias needs a value"),
    ("batch d --emit-metrics", "--emit-metrics needs a path"),
    ("explain a.c --alias", "--alias needs a value"),
    ("port --stage", "--stage needs a value"),
    // Bad values.
    (
        "port a.c --stage bogus",
        "unknown stage `bogus` (accepted: original, expl, spin, full)",
    ),
    (
        "batch d --stage fast",
        "unknown stage `fast` (accepted: original, expl, spin, full)",
    ),
    (
        "port a.c --alias bogus",
        "unknown alias mode `bogus` (accepted: type-based, points-to)",
    ),
    (
        "lint a.c --alias precise",
        "unknown alias mode `precise` (accepted: type-based, points-to)",
    ),
    (
        "batch d --alias x",
        "unknown alias mode `x` (accepted: type-based, points-to)",
    ),
    (
        "explain a.c --alias x",
        "unknown alias mode `x` (accepted: type-based, points-to)",
    ),
    (
        "check a.c --model fast",
        "unknown model `fast` (accepted: sc, tso, wmm, arm)",
    ),
    (
        "lint a.c --deny everything",
        "unknown lint rule `everything` (accepted: race-candidate, fence-placement)",
    ),
    // Unknown arguments, per subcommand.
    ("port a.c --bogus", "unknown argument `--bogus`"),
    ("port a.c b.c", "unknown argument `b.c`"),
    ("port a.c --ported", "unknown argument `--ported`"),
    ("port a.c --model arm", "unknown argument `--model`"),
    (
        "port a.c --deny race-candidate",
        "unknown argument `--deny`",
    ),
    ("port a.c --no-cache", "unknown argument `--no-cache`"),
    ("port a.c --cache-dir c", "unknown argument `--cache-dir`"),
    ("port a.c --jobs 2", "unknown argument `--jobs`"),
    ("port a.c --jobs", "unknown argument `--jobs`"),
    ("check a.c --bogus", "unknown argument `--bogus`"),
    ("check a.c b.c", "unknown argument `b.c`"),
    ("check a.c --stage spin", "unknown argument `--stage`"),
    ("check a.c --alias points-to", "unknown argument `--alias`"),
    ("check a.c --cache-dir c", "unknown argument `--cache-dir`"),
    ("check a.c --report", "unknown argument `--report`"),
    ("check a.c --jobs 2", "unknown argument `--jobs`"),
    ("check a.c --jobs", "unknown argument `--jobs`"),
    ("check a.c --jobs 0", "unknown argument `--jobs`"),
    ("run a.c --bogus", "unknown argument `--bogus`"),
    ("run a.c b.c", "unknown argument `b.c`"),
    ("run a.c --jobs 2", "unknown argument `--jobs`"),
    (
        "run a.c --emit-metrics m",
        "unknown argument `--emit-metrics`",
    ),
    ("run a.c --alias type-based", "unknown argument `--alias`"),
    ("lint a.c --bogus", "unknown argument `--bogus`"),
    ("lint a.c b.c", "unknown argument `b.c`"),
    ("lint a.c --stage spin", "unknown argument `--stage`"),
    ("lint a.c --trace", "unknown argument `--trace`"),
    ("lint a.c --no-cache", "unknown argument `--no-cache`"),
    ("lint a.c --cache-dir c", "unknown argument `--cache-dir`"),
    ("lint a.c --jobs 2", "unknown argument `--jobs`"),
    ("batch d --bogus", "unknown argument `--bogus`"),
    ("batch d e", "unknown argument `e`"),
    ("batch d --ported", "unknown argument `--ported`"),
    ("batch d --report", "unknown argument `--report`"),
    ("batch d --no-cache", "unknown argument `--no-cache`"),
    ("batch d --cache-dir c", "unknown argument `--cache-dir`"),
    ("batch d --jobs 4", "unknown argument `--jobs`"),
    ("batch d --jobs", "unknown argument `--jobs`"),
    ("explain a.c --bogus", "unknown argument `--bogus`"),
    ("explain a.c b.c", "unknown argument `b.c`"),
    ("explain a.c --jobs 2", "unknown argument `--jobs`"),
    ("explain a.c --ported", "unknown argument `--ported`"),
    ("metrics m.jsonl --bogus", "unknown argument `--bogus`"),
    ("metrics m.jsonl n.jsonl", "unknown argument `n.jsonl`"),
    ("metrics m.jsonl --jobs 2", "unknown argument `--jobs`"),
    // An unknown argument is reported before a missing input.
    ("port --bogus", "unknown argument `--bogus`"),
    ("metrics -", "unknown argument `-`"),
    // Mutually exclusive pairs.
    (
        "port a.c --naive --lasagne",
        "--naive and --lasagne are mutually exclusive",
    ),
    (
        "port --lasagne --naive",
        "--naive and --lasagne are mutually exclusive",
    ),
    (
        "port a.c --naive --lasagne --bogus",
        "unknown argument `--bogus`",
    ),
    // Explain targets.
    (
        "explain :41",
        "explain: `:41` has no file before the `:` (expected file.c[:LINE])",
    ),
    (
        "explain a.c:",
        "explain: `a.c:` has a trailing `:` but no line number (expected file.c[:LINE])",
    ),
    ("explain a.c:forty", "explain: `forty` is not a line number"),
    ("explain a.c:-3", "explain: `-3` is not a line number"),
    (
        "explain a.c:0",
        "explain: line numbers are 1-based; 0 never matches",
    ),
];

#[test]
fn every_parse_error_keeps_its_exact_text() {
    for (line, want) in ERRORS {
        match parse_args(&args(line)) {
            Ok(cmd) => panic!("`{line}` parsed as {cmd:?}, expected `{want}`"),
            Err(got) => assert_eq!(&got, want, "`{line}`"),
        }
    }
}

/// Tokens the mutants are built from: every subcommand and flag, good and
/// bad values, and a little junk.
const VOCAB: &[&str] = &[
    "port",
    "check",
    "run",
    "lint",
    "batch",
    "explain",
    "metrics",
    "help",
    "--help",
    "-h",
    "--stage",
    "--alias",
    "--jobs",
    "--emit-metrics",
    "--ported",
    "--report",
    "--naive",
    "--lasagne",
    "--trace",
    "--model",
    "--deny",
    "a.c",
    "b.c",
    "a.c:41",
    "a.c:",
    ":41",
    "a.c:0",
    "a.c::",
    "dir",
    "m.jsonl",
    "spin",
    "full",
    "original",
    "expl",
    "type-based",
    "points-to",
    "arm",
    "tso",
    "race-candidate",
    "fence-placement",
    "shared-plain-access",
    "0",
    "1",
    "4",
    "18446744073709551616",
    "-1",
    "-",
    "--",
    "",
    "é",
    "--bogus",
];

fn token(rng: &mut Rng) -> String {
    VOCAB[rng.gen_usize(VOCAB.len())].to_string()
}

/// One mutant: a well-formed command line, then a few random insertions,
/// deletions, replacements and swaps.
fn mutant(rng: &mut Rng) -> Vec<String> {
    const SEEDS: &[&str] = &[
        "port a.c --stage spin --alias points-to --report --trace",
        "port a.c --naive --report",
        "check a.c --model arm --ported --emit-metrics m.jsonl",
        "run a.c --ported",
        "lint a.c --ported --alias points-to --deny race-candidate",
        "batch dir --stage full --emit-metrics m.jsonl",
        "explain a.c:41 --alias points-to",
        "metrics m.jsonl",
    ];
    let mut v = args(SEEDS[rng.gen_usize(SEEDS.len())]);
    for _ in 0..1 + rng.gen_usize(4) {
        let n = v.len();
        match rng.gen_usize(4) {
            0 => v.insert(rng.gen_usize(n + 1), token(rng)),
            1 if n > 0 => {
                v.remove(rng.gen_usize(n));
            }
            2 if n > 0 => v[rng.gen_usize(n)] = token(rng),
            _ if n > 1 => v.swap(rng.gen_usize(n), rng.gen_usize(n)),
            _ => v.push(token(rng)),
        }
    }
    v
}

#[test]
fn argument_mutants_parse_or_fail_by_name() {
    let mut rng = Rng::new(0xA7C1);
    for case in 0..2_000 {
        let argv = mutant(&mut rng);
        let got = std::panic::catch_unwind(|| parse_args(&argv));
        match got {
            Ok(Ok(_)) => {}
            Ok(Err(e)) => assert!(!e.is_empty(), "case {case}: {argv:?} gave an empty error"),
            Err(_) => panic!("case {case}: parse_args panicked on {argv:?}"),
        }
    }
}
