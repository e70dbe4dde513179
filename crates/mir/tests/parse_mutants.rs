//! Panic-freedom of the MIR parser: seeded byte-level mutants of printed
//! MIR must parse to a module or to a named `ParseError`, never panic.
//!
//! The texts are every `examples/*.c` as compiled and after a full port,
//! and the five Table 3 profiles at 1:1000. Mutants edit one to four
//! bytes (replace, insert, delete), drawing mostly from the characters
//! MIR syntax gives meaning to; one in eight also inserts a character
//! outside ASCII.

use atomig_core::{AtomigConfig, Pipeline};
use atomig_mir::printer::print_module;
use atomig_mir::{parse_module, Module};
use atomig_testutil::Rng;
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};

fn compile(src: &str, name: &str) -> Module {
    atomig_frontc::compile(src, name).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Printed MIR of the examples (before and after a port) and of the
/// profiles at 1:1000, as `(label, text)`.
fn texts() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut out = Vec::new();
    for p in paths {
        let name = p.file_stem().unwrap().to_string_lossy().into_owned();
        let mut m = compile(&std::fs::read_to_string(&p).unwrap(), &name);
        out.push((format!("{name}.c"), print_module(&m)));
        Pipeline::new(AtomigConfig::full()).port_module(&mut m);
        out.push((format!("{name}.c ported"), print_module(&m)));
    }
    for p in profiles::all() {
        let app = synth::generate(GenConfig::from_profile(&p, 1000));
        out.push((
            p.name.to_string(),
            print_module(&compile(&app.source, p.name)),
        ));
    }
    out
}

/// An ASCII byte, weighted towards MIR punctuation, sigils and digits.
fn mir_byte(rng: &mut Rng) -> u8 {
    const INTERESTING: &[u8] = b"%@!#{}()[]<>,:;=*.-+ \n\t0123456789xaiz_\"'/\\";
    if rng.gen_ratio(3, 4) {
        INTERESTING[rng.gen_usize(INTERESTING.len())]
    } else {
        rng.gen_usize(128) as u8
    }
}

const NON_ASCII: &[char] = &['é', '\u{85}', '\u{a0}', '€', '中', '😀'];

/// Applies 1–4 random byte edits to `text`.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let mut bytes = text.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_usize(4) {
        let at = rng.gen_usize(bytes.len() + 1);
        match rng.gen_usize(3) {
            0 if at < bytes.len() => bytes[at] = mir_byte(rng),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, mir_byte(rng)),
        }
    }
    let mut out = String::from_utf8(bytes).expect("printed MIR is ASCII");
    if rng.gen_ratio(1, 8) {
        let at = rng.gen_usize(out.len() + 1);
        out.insert(at, NON_ASCII[rng.gen_usize(NON_ASCII.len())]);
    }
    out
}

#[test]
fn mutants_of_printed_mir_never_panic_the_parser() {
    let texts = texts();
    let mut rng = Rng::new(0x6d1e_5eed);
    let mutants = 3000;
    let mut errors = 0;
    for k in 0..mutants {
        let (what, text) = &texts[k % texts.len()];
        let mutant = mutate(text, &mut rng);
        let outcome = std::panic::catch_unwind(|| parse_module(&mutant))
            .unwrap_or_else(|_| panic!("mutant {k} of {what} panics the parser: {mutant:?}"));
        if let Err(e) = outcome {
            let shown = e.to_string();
            assert!(
                shown.starts_with("parse error at line ") && !e.msg.is_empty(),
                "mutant {k} of {what}: unnamed error {shown:?}"
            );
            errors += 1;
        }
    }
    // The mutants reach the error paths, and some still parse.
    assert!(
        errors * 2 > mutants && errors < mutants,
        "{errors} of {mutants} mutants are parse errors"
    );
}
