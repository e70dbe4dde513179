//! The `atomig` binary on malformed input: a named error and exit code 1,
//! never a panic (exit code 101).

use std::process::Command;

#[test]
fn non_ascii_identifier_is_a_lex_error() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/non_ascii_ident.c"
    );
    for sub in ["port", "lint", "check"] {
        let out = Command::new(env!("CARGO_BIN_EXE_atomig"))
            .args([sub, fixture])
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{sub}: {stderr}");
        assert!(
            stderr.contains("lex error at line 3: unexpected character `\u{e9}`"),
            "{sub}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{sub}: {stderr}");
    }
}
