//! The MiniC lexer.

use std::error::Error;
use std::fmt;

/// A lexical error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Description.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at line {}: {}", self.line, self.msg)
    }
}

impl Error for LexError {}

/// Token payloads.
///
/// The lifetime `'s` is the source text's: identifiers and string
/// literals are slices of it, so a token stream lives no longer than the
/// source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'s> {
    /// Identifier or keyword.
    Ident(&'s str),
    /// Integer literal.
    Int(i64),
    /// String literal (inline asm text), without its quotes.
    Str(&'s str),
    /// A punctuation / operator token, e.g. `"+="`, `"->"`.
    Punct(&'static str),
}

/// A token with its source line, borrowing from the source text `'s`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'s> {
    /// Payload.
    pub kind: TokenKind<'s>,
    /// 1-based source line.
    pub line: u32,
}

/// The punctuator at the start of `rest`, longest first.
fn punct(rest: &[u8]) -> Option<&'static str> {
    let at = |k: usize| rest.get(k).copied().unwrap_or(0);
    Some(match (at(0), at(1), at(2)) {
        (b'<', b'<', b'=') => "<<=",
        (b'>', b'>', b'=') => ">>=",
        (b'-', b'>', _) => "->",
        (b'+', b'+', _) => "++",
        (b'-', b'-', _) => "--",
        (b'<', b'<', _) => "<<",
        (b'>', b'>', _) => ">>",
        (b'<', b'=', _) => "<=",
        (b'>', b'=', _) => ">=",
        (b'=', b'=', _) => "==",
        (b'!', b'=', _) => "!=",
        (b'&', b'&', _) => "&&",
        (b'|', b'|', _) => "||",
        (b'+', b'=', _) => "+=",
        (b'-', b'=', _) => "-=",
        (b'*', b'=', _) => "*=",
        (b'/', b'=', _) => "/=",
        (b'%', b'=', _) => "%=",
        (b'&', b'=', _) => "&=",
        (b'|', b'=', _) => "|=",
        (b'^', b'=', _) => "^=",
        (b'(', ..) => "(",
        (b')', ..) => ")",
        (b'{', ..) => "{",
        (b'}', ..) => "}",
        (b'[', ..) => "[",
        (b']', ..) => "]",
        (b';', ..) => ";",
        (b',', ..) => ",",
        (b'.', ..) => ".",
        (b'+', ..) => "+",
        (b'-', ..) => "-",
        (b'*', ..) => "*",
        (b'/', ..) => "/",
        (b'%', ..) => "%",
        (b'<', ..) => "<",
        (b'>', ..) => ">",
        (b'=', ..) => "=",
        (b'!', ..) => "!",
        (b'&', ..) => "&",
        (b'|', ..) => "|",
        (b'^', ..) => "^",
        (b'~', ..) => "~",
        (b'?', ..) => "?",
        (b':', ..) => ":",
        _ => return None,
    })
}

/// Tokenizes MiniC source. `//` and `/* */` comments are skipped.
///
/// Outside comments and string literals the source must be ASCII: any
/// other character is a [`LexError`] naming it.
pub fn lex(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    while i < bytes.len() {
        let c = bytes[i];
        if c == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        // ASCII whitespace, vertical tab included.
        if matches!(c, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c') {
            i += 1;
            continue;
        }
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        if c == b'/' && i + 1 < bytes.len() && bytes[i + 1] == b'*' {
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
        if c == b'"' {
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
            toks.push(Token {
                kind: TokenKind::Str(&src[start..j]),
                line,
            });
            i = j + 1;
            continue;
        }
        if c.is_ascii_digit() {
            let start = i;
            let mut j = i;
            // Hex literals.
            if c == b'0' && j + 1 < bytes.len() && (bytes[j + 1] == b'x' || bytes[j + 1] == b'X') {
                j += 2;
                while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
                    j += 1;
                }
                let v = i64::from_str_radix(&src[start + 2..j], 16).map_err(|_| LexError {
                    msg: format!("bad hex literal `{}`", &src[start..j]),
                    line,
                })?;
                toks.push(Token {
                    kind: TokenKind::Int(v),
                    line,
                });
                i = j;
                continue;
            }
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            // Skip C suffixes (L, U, UL...).
            let lit_end = j;
            while j < bytes.len() && matches!(bytes[j], b'l' | b'L' | b'u' | b'U') {
                j += 1;
            }
            let v: i64 = src[start..lit_end].parse().map_err(|_| LexError {
                msg: format!("bad integer `{}`", &src[start..lit_end]),
                line,
            })?;
            toks.push(Token {
                kind: TokenKind::Int(v),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_alphabetic() || c == b'_' {
            let start = i;
            let mut j = i;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            toks.push(Token {
                kind: TokenKind::Ident(&src[start..j]),
                line,
            });
            i = j;
            continue;
        }
        let Some(p) = punct(&bytes[i..]) else {
            // Every byte consumed so far ends an ASCII character, so `i`
            // is a character boundary.
            let ch = src[i..]
                .chars()
                .next()
                .unwrap_or(char::REPLACEMENT_CHARACTER);
            return Err(LexError {
                msg: format!("unexpected character `{ch}`"),
                line,
            });
        };
        toks.push(Token {
            kind: TokenKind::Punct(p),
            line,
        });
        i += p.len();
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                TokenKind::Ident("int"),
                TokenKind::Ident("x"),
                TokenKind::Punct("="),
                TokenKind::Int(42),
                TokenKind::Punct(";"),
            ]
        );
    }

    #[test]
    fn multi_char_punctuation_is_greedy() {
        assert_eq!(
            kinds("a->b ++ <= <<="),
            vec![
                TokenKind::Ident("a"),
                TokenKind::Punct("->"),
                TokenKind::Ident("b"),
                TokenKind::Punct("++"),
                TokenKind::Punct("<="),
                TokenKind::Punct("<<="),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // line\n/* block\nstill */ b"),
            vec![TokenKind::Ident("a"), TokenKind::Ident("b")]
        );
    }

    #[test]
    fn strings_and_hex() {
        assert_eq!(
            kinds(r#"asm("mfence") 0x10"#),
            vec![
                TokenKind::Ident("asm"),
                TokenKind::Punct("("),
                TokenKind::Str("mfence"),
                TokenKind::Punct(")"),
                TokenKind::Int(16),
            ]
        );
    }

    #[test]
    fn int_suffixes_ignored() {
        assert_eq!(
            kinds("10UL 3L"),
            vec![TokenKind::Int(10), TokenKind::Int(3)]
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let toks = lex("a\nb\n\nc").unwrap();
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("\"oops").is_err());
    }

    #[test]
    fn non_ascii_outside_comments_is_a_named_error() {
        let err = lex("int a\u{e9};\n").unwrap_err();
        assert_eq!(
            err,
            LexError {
                msg: "unexpected character `\u{e9}`".into(),
                line: 1
            }
        );
        let err = lex("int a;\n\u{20ac} b;").unwrap_err();
        assert_eq!(err.msg, "unexpected character `\u{20ac}`");
        assert_eq!(err.line, 2);
        // The Latin-1 reading of U+00A0's second byte is a space; it must
        // not be skipped as one.
        assert!(lex("int\u{a0}a;").is_err());
        assert_eq!(
            kinds("a // \u{e9}\n/* \u{20ac} */ \"\u{df}\""),
            vec![TokenKind::Ident("a"), TokenKind::Str("\u{df}")]
        );
    }
}
