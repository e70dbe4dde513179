//! Differential test of the lexer against a copy of the one it replaced.
//!
//! The reference below is a copy of the earlier lexer: it
//! tries each entry of a punctuator table with `starts_with` and owns
//! every identifier and string. On ASCII text the classified-token
//! lexer, decoded through `Tokens::iter`, must produce the same
//! `(kind, line)` stream, or the same error on the same line. The inputs are the examples, the five Table 3 profiles,
//! every ordered pair of punctuators, and seeded byte-level mutants of
//! the examples. Every mutant also goes through the whole frontend,
//! which must answer `Ok` or `Err` and never panic; mutants that insert
//! non-ASCII characters go only there, since the reference cannot read
//! them.

use atomig_frontc::{lex, LexError, TokenKind};
use atomig_testutil::Rng;
use atomig_workloads::profiles;
use atomig_workloads::synth::{self, GenConfig};

mod reference {
    use atomig_frontc::LexError;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Kind {
        Ident(String),
        Int(i64),
        Str(String),
        Punct(&'static str),
    }

    pub const PUNCTS: &[&str] = &[
        // Longest first.
        "<<=", ">>=", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
        "*=", "/=", "%=", "&=", "|=", "^=", "(", ")", "{", "}", "[", "]", ";", ",", ".", "+", "-",
        "*", "/", "%", "<", ">", "=", "!", "&", "|", "^", "~", "?", ":",
    ];

    /// The earlier lexer. Only ever called on ASCII text: it classifies
    /// bytes as Latin-1 characters and slices mid-character otherwise.
    pub fn lex(src: &str) -> Result<Vec<(Kind, u32)>, LexError> {
        let bytes = src.as_bytes();
        let mut toks = Vec::new();
        let mut i = 0;
        let mut line: u32 = 1;
        while i < bytes.len() {
            let c = bytes[i] as char;
            if c == '\n' {
                line += 1;
                i += 1;
                continue;
            }
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                continue;
            }
            if c == '/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
                continue;
            }
            if c == '"' {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != b'"' {
                    if bytes[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(LexError {
                        msg: "unterminated string".into(),
                        line,
                    });
                }
                toks.push((Kind::Str(src[start..j].to_string()), line));
                i = j + 1;
                continue;
            }
            if c.is_ascii_digit() {
                let start = i;
                let mut j = i;
                if c == '0' && j + 1 < bytes.len() && (bytes[j + 1] == b'x' || bytes[j + 1] == b'X')
                {
                    j += 2;
                    while j < bytes.len() && (bytes[j] as char).is_ascii_hexdigit() {
                        j += 1;
                    }
                    let v = i64::from_str_radix(&src[start + 2..j], 16).map_err(|_| LexError {
                        msg: format!("bad hex literal `{}`", &src[start..j]),
                        line,
                    })?;
                    toks.push((Kind::Int(v), line));
                    i = j;
                    continue;
                }
                while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
                    j += 1;
                }
                let lit_end = j;
                while j < bytes.len() && matches!(bytes[j], b'l' | b'L' | b'u' | b'U') {
                    j += 1;
                }
                let v: i64 = src[start..lit_end].parse().map_err(|_| LexError {
                    msg: format!("bad integer `{}`", &src[start..lit_end]),
                    line,
                })?;
                toks.push((Kind::Int(v), line));
                i = j;
                continue;
            }
            if c.is_alphabetic() || c == '_' {
                let start = i;
                let mut j = i;
                while j < bytes.len() && ((bytes[j] as char).is_alphanumeric() || bytes[j] == b'_')
                {
                    j += 1;
                }
                toks.push((Kind::Ident(src[start..j].to_string()), line));
                i = j;
                continue;
            }
            let mut matched = false;
            for p in PUNCTS {
                if src[i..].starts_with(p) {
                    toks.push((Kind::Punct(p), line));
                    i += p.len();
                    matched = true;
                    break;
                }
            }
            if !matched {
                return Err(LexError {
                    msg: format!("unexpected character `{c}`"),
                    line,
                });
            }
        }
        Ok(toks)
    }
}

use reference::Kind;

/// The lexer's stream in the reference's terms.
fn lexed(src: &str) -> Result<Vec<(Kind, u32)>, LexError> {
    let toks = lex(src)?;
    Ok(toks
        .iter()
        .map(|(kind, line)| {
            let kind = match kind {
                TokenKind::Ident(s) => Kind::Ident(s.to_string()),
                TokenKind::Int(v) => Kind::Int(v),
                TokenKind::Str(s) => Kind::Str(s.to_string()),
                TokenKind::Punct(p) => Kind::Punct(p),
            };
            (kind, line)
        })
        .collect())
}

/// Asserts both lexers agree on `src`: the same tokens on the same
/// lines, or the same error on the same line.
fn agree(src: &str, what: &str) {
    assert!(src.is_ascii(), "{what}: the reference only reads ASCII");
    let want = reference::lex(src);
    let got = lexed(src);
    match (&want, &got) {
        (Ok(w), Ok(g)) => assert!(w == g, "{what}: token streams differ on {src:?}"),
        (Err(w), Err(g)) => assert_eq!(w, g, "{what}: errors differ on {src:?}"),
        _ => panic!("{what}: reference {want:?}, lexer {got:?} on {src:?}"),
    }
}

fn examples() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "c"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    paths
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

#[test]
fn matches_reference_on_examples() {
    for (name, src) in examples() {
        assert!(lexed(&src).is_ok(), "{name} lexes");
        agree(&src, &name);
    }
}

#[test]
fn matches_reference_on_profiles() {
    for seed in [1, 2] {
        for p in profiles::all() {
            let app = synth::generate(GenConfig {
                seed,
                ..GenConfig::from_profile(&p, 1000)
            });
            let what = format!("{} seed {seed}", p.name);
            assert!(lexed(&app.source).is_ok(), "{what} lexes");
            agree(&app.source, &what);
        }
    }
}

#[test]
fn matches_reference_on_punctuator_pairs() {
    for a in reference::PUNCTS {
        for b in reference::PUNCTS {
            agree(&format!("{a}{b}"), "adjacent pair");
            agree(&format!("{a} {b}"), "spaced pair");
        }
    }
}

/// A printable or control ASCII byte, weighted towards the characters
/// MiniC gives meaning to.
fn ascii_byte(rng: &mut Rng) -> u8 {
    const INTERESTING: &[u8] = b"/*\"\n \t\x0b\x0c\r0x9_aZ(){}[];,.+-<>=!&|^~?:%'#@$\\`";
    if rng.gen_ratio(3, 4) {
        INTERESTING[rng.gen_usize(INTERESTING.len())]
    } else {
        rng.gen_usize(128) as u8
    }
}

/// Applies 1–4 random byte edits (replace, insert, delete).
fn mutate_ascii(src: &str, rng: &mut Rng) -> String {
    let mut bytes = src.as_bytes().to_vec();
    for _ in 0..1 + rng.gen_usize(4) {
        let at = rng.gen_usize(bytes.len() + 1);
        match rng.gen_usize(3) {
            0 if at < bytes.len() => bytes[at] = ascii_byte(rng),
            1 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, ascii_byte(rng)),
        }
    }
    String::from_utf8(bytes).expect("ASCII edits keep the text ASCII")
}

#[test]
fn matches_reference_on_ascii_mutants() {
    let examples = examples();
    let mut rng = Rng::new(0x1e_c5e7);
    let mut errors = 0;
    for k in 0..2000 {
        let (name, src) = &examples[k % examples.len()];
        let mutant = mutate_ascii(src, &mut rng);
        let what = format!("mutant {k} of {name}");
        agree(&mutant, &what);
        errors += usize::from(reference::lex(&mutant).is_err());
        compile_without_panic(&mutant, &what).ok();
    }
    // The mutants reach the error paths as well as the token paths.
    assert!(errors > 100, "only {errors} of 2000 mutants fail to lex");
}

/// Compiles `src` through the whole frontend, failing the test if any
/// stage panics instead of returning an error.
fn compile_without_panic(src: &str, what: &str) -> Result<atomig_mir::Module, String> {
    std::panic::catch_unwind(|| atomig_frontc::compile(src, "mutant"))
        .unwrap_or_else(|_| panic!("{what} panics the frontend: {src:?}"))
}

/// Characters outside ASCII, including the ones the earlier lexer read
/// as Latin-1 whitespace or letters.
const NON_ASCII: &[char] = &[
    'é', 'ß', 'Ã', '\u{85}', '\u{a0}', '\u{ff}', '€', 'λ', '\u{2028}', '\u{feff}', '中', '😀',
];

#[test]
fn non_ascii_mutants_never_panic() {
    let examples = examples();
    let mut rng = Rng::new(0xa5c11);
    let mut lex_errors = 0;
    for k in 0..2000 {
        let (name, src) = &examples[k % examples.len()];
        let mut mutant = mutate_ascii(src, &mut rng);
        for _ in 0..1 + rng.gen_usize(3) {
            let mut at = rng.gen_usize(mutant.len() + 1);
            while !mutant.is_char_boundary(at) {
                at -= 1;
            }
            mutant.insert(at, NON_ASCII[rng.gen_usize(NON_ASCII.len())]);
        }
        let outcome = compile_without_panic(&mutant, &format!("mutant {k} of {name}"));
        if outcome.is_err_and(|e| e.starts_with("lex error")) {
            lex_errors += 1;
        }
    }
    assert!(
        lex_errors > 1000,
        "only {lex_errors} of 2000 mutants are lex errors"
    );
}

#[test]
fn non_ascii_inside_comments_and_strings_still_lexes() {
    let src = "// é € 😀\nint a; /* ß\nλ */ int b;\nvoid f() { asm(\"中 \u{a0}\"); }\n";
    let toks = lex(src).unwrap();
    let idents: Vec<_> = toks
        .iter()
        .filter_map(|(kind, line)| match kind {
            TokenKind::Ident(s) => Some((s, line)),
            _ => None,
        })
        .collect();
    assert_eq!(
        idents,
        [
            ("int", 2),
            ("a", 2),
            ("int", 3),
            ("b", 3),
            ("void", 4),
            ("f", 4),
            ("asm", 4)
        ]
    );
    assert!(toks.iter().any(|t| t == (TokenKind::Str("中 \u{a0}"), 4)));
}
