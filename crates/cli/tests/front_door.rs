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

/// A `main` whose body is `if` followed by `arms - 1` `else if` arms.
fn else_if_chain(arms: usize) -> String {
    let mut src = String::from("int main() {\n  long x = nondet();\n  if (x == 0) x = 1;\n");
    for i in 1..arms {
        src.push_str(&format!("  else if (x == {i}) x = {};\n", i + 1));
    }
    src.push_str("  else x = 0;\n  return 0;\n}\n");
    src
}

/// Runs `atomig port` on `src`, returning the exit code and stderr.
fn port(name: &str, src: &str) -> (Option<i32>, String) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.c"));
    std::fs::write(&path, src).expect("write the input");
    let out = Command::new(env!("CARGO_BIN_EXE_atomig"))
        .arg("port")
        .arg(&path)
        .output()
        .expect("the binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn deep_nesting_is_a_named_parse_error() {
    let deep = [
        (
            "parens",
            format!(
                "int main() {{ return {}1{}; }}\n",
                "(".repeat(10_000),
                ")".repeat(10_000)
            ),
        ),
        (
            "prefix_minus",
            format!("int main() {{ return {}1; }}\n", "- ".repeat(100_000)),
        ),
        (
            "blocks",
            format!(
                "int main() {{ {}{} return 0; }}\n",
                "{".repeat(10_000),
                "}".repeat(10_000)
            ),
        ),
        (
            "sum",
            format!("int main() {{ return 1{}; }}\n", "+1".repeat(100_000 - 1)),
        ),
    ];
    let limit = format!(
        "parse error at line 1: statements and expressions nest deeper than {} levels",
        atomig_frontc::MAX_DEPTH
    );
    for (name, src) in deep {
        let (code, stderr) = port(name, &src);
        assert_eq!(code, Some(1), "{name}: {stderr}");
        assert!(stderr.contains(&limit), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

#[test]
fn long_else_if_chains_port() {
    // The arms of a chain are one statement, not a nest, so no length
    // of chain meets the nesting bound.
    for arms in [6_000, 10_000] {
        let (code, stderr) = port(&format!("else_if_{arms}"), &else_if_chain(arms));
        assert_eq!(code, Some(0), "{arms} arms: {stderr}");
    }
}
