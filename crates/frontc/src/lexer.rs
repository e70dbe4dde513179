//! The MiniC lexer.
//!
//! [`lex`] classifies each token as it reads it: a [`Token`] is 16 bytes
//! and carries a one-byte [`Class`] that already names its keyword or
//! punctuator, so the parser dispatches on bytes and never compares
//! strings. Identifiers and string literals are byte ranges of the
//! source, which the [`Tokens`] keep beside the compact vector;
//! [`Tokens::kind`] decodes a token back into a [`TokenKind`] for error
//! messages and tests.

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

/// A token decoded into its payload.
///
/// The lifetime `'s` is the source text's: identifiers and string
/// literals are slices of it. Keywords decode as identifiers.
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

/// What a token is, in one byte: a plain identifier, a literal, or the
/// keyword or punctuator it spells.
///
/// The type keywords are contiguous (`KwVoid` to `KwStatic`), and so are
/// all keywords (`KwVoid` to `KwAsm3`), so [`Class::is_type_keyword`]
/// and [`Class::is_word`] are range checks.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// An identifier that is no keyword.
    Ident,
    /// An integer literal.
    Int,
    /// A string literal.
    Str,
    KwVoid,
    KwChar,
    KwShort,
    KwInt,
    KwLong,
    KwStruct,
    KwVolatile,
    KwAtomic,
    /// `_Atomic`.
    KwUAtomic,
    KwUnsigned,
    KwSigned,
    KwConst,
    KwStatic,
    KwIf,
    KwElse,
    KwWhile,
    KwDo,
    KwFor,
    KwReturn,
    KwBreak,
    KwContinue,
    KwSizeof,
    KwAsm,
    /// `__asm__`.
    KwAsm2,
    /// `__asm`.
    KwAsm3,
    ShlEq,
    ShrEq,
    Arrow,
    PlusPlus,
    MinusMinus,
    Shl,
    Shr,
    Le,
    Ge,
    EqEq,
    Ne,
    AndAnd,
    OrOr,
    PlusEq,
    MinusEq,
    StarEq,
    SlashEq,
    PercentEq,
    AmpEq,
    PipeEq,
    CaretEq,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Comma,
    Dot,
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Lt,
    Gt,
    Assign,
    Bang,
    Amp,
    Pipe,
    Caret,
    Tilde,
    Question,
    Colon,
}

impl Class {
    /// Whether the class is a keyword that starts a type.
    pub fn is_type_keyword(self) -> bool {
        (Class::KwVoid as u8..=Class::KwStatic as u8).contains(&(self as u8))
    }

    /// Whether the token is an identifier or a keyword: anything the
    /// parser accepts where it expects a name.
    pub fn is_word(self) -> bool {
        self == Class::Ident || (Class::KwVoid as u8..=Class::KwAsm3 as u8).contains(&(self as u8))
    }

    /// The text a keyword or punctuator spells; empty for identifiers
    /// and literals, whose text is in the source.
    pub fn text(self) -> &'static str {
        match self {
            Class::Ident | Class::Int | Class::Str => "",
            Class::KwVoid => "void",
            Class::KwChar => "char",
            Class::KwShort => "short",
            Class::KwInt => "int",
            Class::KwLong => "long",
            Class::KwStruct => "struct",
            Class::KwVolatile => "volatile",
            Class::KwAtomic => "atomic",
            Class::KwUAtomic => "_Atomic",
            Class::KwUnsigned => "unsigned",
            Class::KwSigned => "signed",
            Class::KwConst => "const",
            Class::KwStatic => "static",
            Class::KwIf => "if",
            Class::KwElse => "else",
            Class::KwWhile => "while",
            Class::KwDo => "do",
            Class::KwFor => "for",
            Class::KwReturn => "return",
            Class::KwBreak => "break",
            Class::KwContinue => "continue",
            Class::KwSizeof => "sizeof",
            Class::KwAsm => "asm",
            Class::KwAsm2 => "__asm__",
            Class::KwAsm3 => "__asm",
            Class::ShlEq => "<<=",
            Class::ShrEq => ">>=",
            Class::Arrow => "->",
            Class::PlusPlus => "++",
            Class::MinusMinus => "--",
            Class::Shl => "<<",
            Class::Shr => ">>",
            Class::Le => "<=",
            Class::Ge => ">=",
            Class::EqEq => "==",
            Class::Ne => "!=",
            Class::AndAnd => "&&",
            Class::OrOr => "||",
            Class::PlusEq => "+=",
            Class::MinusEq => "-=",
            Class::StarEq => "*=",
            Class::SlashEq => "/=",
            Class::PercentEq => "%=",
            Class::AmpEq => "&=",
            Class::PipeEq => "|=",
            Class::CaretEq => "^=",
            Class::LParen => "(",
            Class::RParen => ")",
            Class::LBrace => "{",
            Class::RBrace => "}",
            Class::LBracket => "[",
            Class::RBracket => "]",
            Class::Semi => ";",
            Class::Comma => ",",
            Class::Dot => ".",
            Class::Plus => "+",
            Class::Minus => "-",
            Class::Star => "*",
            Class::Slash => "/",
            Class::Percent => "%",
            Class::Lt => "<",
            Class::Gt => ">",
            Class::Assign => "=",
            Class::Bang => "!",
            Class::Amp => "&",
            Class::Pipe => "|",
            Class::Caret => "^",
            Class::Tilde => "~",
            Class::Question => "?",
            Class::Colon => ":",
        }
    }
}

/// One token: its class, its source line and a payload, in 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// An integer literal's value; for an identifier or a string, the
    /// byte offset of its text in the low 32 bits and its length in the
    /// high 32; 0 for keywords and punctuators.
    payload: u64,
    /// 1-based source line.
    pub line: u32,
    /// What the token is.
    pub class: Class,
}

/// A lexed source: the compact tokens and the text they point into.
#[derive(Debug, Clone)]
pub struct Tokens<'s> {
    src: &'s str,
    toks: Vec<Token>,
}

impl<'s> Tokens<'s> {
    /// The number of tokens.
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// Whether the source held no token.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// The compact tokens, in source order.
    pub fn as_slice(&self) -> &[Token] {
        &self.toks
    }

    /// The text of an identifier or string literal, or of the keyword
    /// or punctuator `t` spells; empty for an integer literal.
    pub fn text(&self, t: Token) -> &'s str {
        match t.class {
            Class::Ident | Class::Str => {
                let start = t.payload as u32 as usize;
                &self.src[start..start + (t.payload >> 32) as usize]
            }
            Class::Int => "",
            c => c.text(),
        }
    }

    /// An integer literal's value (0 for any other token).
    pub fn int(&self, t: Token) -> i64 {
        match t.class {
            Class::Int => t.payload as i64,
            _ => 0,
        }
    }

    /// `t` decoded into a [`TokenKind`].
    pub fn kind(&self, t: Token) -> TokenKind<'s> {
        match t.class {
            Class::Int => TokenKind::Int(self.int(t)),
            Class::Str => TokenKind::Str(self.text(t)),
            c if c.is_word() => TokenKind::Ident(self.text(t)),
            c => TokenKind::Punct(c.text()),
        }
    }

    /// Each token decoded, with its line.
    pub fn iter(&self) -> impl Iterator<Item = (TokenKind<'s>, u32)> + '_ {
        self.toks.iter().map(|&t| (self.kind(t), t.line))
    }
}

/// The keyword `word` spells, or [`Class::Ident`].
fn keyword(word: &[u8]) -> Class {
    match word {
        b"void" => Class::KwVoid,
        b"char" => Class::KwChar,
        b"short" => Class::KwShort,
        b"int" => Class::KwInt,
        b"long" => Class::KwLong,
        b"struct" => Class::KwStruct,
        b"volatile" => Class::KwVolatile,
        b"atomic" => Class::KwAtomic,
        b"_Atomic" => Class::KwUAtomic,
        b"unsigned" => Class::KwUnsigned,
        b"signed" => Class::KwSigned,
        b"const" => Class::KwConst,
        b"static" => Class::KwStatic,
        b"if" => Class::KwIf,
        b"else" => Class::KwElse,
        b"while" => Class::KwWhile,
        b"do" => Class::KwDo,
        b"for" => Class::KwFor,
        b"return" => Class::KwReturn,
        b"break" => Class::KwBreak,
        b"continue" => Class::KwContinue,
        b"sizeof" => Class::KwSizeof,
        b"asm" => Class::KwAsm,
        b"__asm__" => Class::KwAsm2,
        b"__asm" => Class::KwAsm3,
        _ => Class::Ident,
    }
}

/// The punctuator at the start of `rest`, longest first, and its length.
fn punct(rest: &[u8]) -> Option<(Class, usize)> {
    let at = |k: usize| rest.get(k).copied().unwrap_or(0);
    let (class, len) = match (at(0), at(1), at(2)) {
        (b'<', b'<', b'=') => (Class::ShlEq, 3),
        (b'>', b'>', b'=') => (Class::ShrEq, 3),
        (b'-', b'>', _) => (Class::Arrow, 2),
        (b'+', b'+', _) => (Class::PlusPlus, 2),
        (b'-', b'-', _) => (Class::MinusMinus, 2),
        (b'<', b'<', _) => (Class::Shl, 2),
        (b'>', b'>', _) => (Class::Shr, 2),
        (b'<', b'=', _) => (Class::Le, 2),
        (b'>', b'=', _) => (Class::Ge, 2),
        (b'=', b'=', _) => (Class::EqEq, 2),
        (b'!', b'=', _) => (Class::Ne, 2),
        (b'&', b'&', _) => (Class::AndAnd, 2),
        (b'|', b'|', _) => (Class::OrOr, 2),
        (b'+', b'=', _) => (Class::PlusEq, 2),
        (b'-', b'=', _) => (Class::MinusEq, 2),
        (b'*', b'=', _) => (Class::StarEq, 2),
        (b'/', b'=', _) => (Class::SlashEq, 2),
        (b'%', b'=', _) => (Class::PercentEq, 2),
        (b'&', b'=', _) => (Class::AmpEq, 2),
        (b'|', b'=', _) => (Class::PipeEq, 2),
        (b'^', b'=', _) => (Class::CaretEq, 2),
        (b'(', ..) => (Class::LParen, 1),
        (b')', ..) => (Class::RParen, 1),
        (b'{', ..) => (Class::LBrace, 1),
        (b'}', ..) => (Class::RBrace, 1),
        (b'[', ..) => (Class::LBracket, 1),
        (b']', ..) => (Class::RBracket, 1),
        (b';', ..) => (Class::Semi, 1),
        (b',', ..) => (Class::Comma, 1),
        (b'.', ..) => (Class::Dot, 1),
        (b'+', ..) => (Class::Plus, 1),
        (b'-', ..) => (Class::Minus, 1),
        (b'*', ..) => (Class::Star, 1),
        (b'/', ..) => (Class::Slash, 1),
        (b'%', ..) => (Class::Percent, 1),
        (b'<', ..) => (Class::Lt, 1),
        (b'>', ..) => (Class::Gt, 1),
        (b'=', ..) => (Class::Assign, 1),
        (b'!', ..) => (Class::Bang, 1),
        (b'&', ..) => (Class::Amp, 1),
        (b'|', ..) => (Class::Pipe, 1),
        (b'^', ..) => (Class::Caret, 1),
        (b'~', ..) => (Class::Tilde, 1),
        (b'?', ..) => (Class::Question, 1),
        (b':', ..) => (Class::Colon, 1),
        _ => return None,
    };
    Some((class, len))
}

/// The payload of the text at `start..end`: offset low, length high.
fn span(start: usize, end: usize) -> u64 {
    start as u64 | ((end - start) as u64) << 32
}

/// Tokenizes MiniC source. `//` and `/* */` comments are skipped.
///
/// Outside comments and string literals the source must be ASCII: any
/// other character is a [`LexError`] naming it. Token texts are 32-bit
/// offsets, so a source of 4 GiB or more is an error too.
pub fn lex(src: &str) -> Result<Tokens<'_>, LexError> {
    if u32::try_from(src.len()).is_err() {
        return Err(LexError {
            msg: "source is 4 GiB or larger".into(),
            line: 1,
        });
    }
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let token = |class, payload, line| Token {
        payload,
        line,
        class,
    };
    while let Some(&c) = bytes.get(i) {
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            // ASCII whitespace, vertical tab included.
            b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c' => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == b'*' && bytes[i + 1] == b'/') {
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            b'"' => {
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
                toks.push(token(Class::Str, span(start, j), line));
                i = j + 1;
            }
            b'0' if matches!(bytes.get(i + 1), Some(b'x' | b'X')) => {
                let start = i;
                let mut j = i + 2;
                while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
                    j += 1;
                }
                let v = i64::from_str_radix(&src[start + 2..j], 16).map_err(|_| LexError {
                    msg: format!("bad hex literal `{}`", &src[start..j]),
                    line,
                })?;
                toks.push(token(Class::Int, v as u64, line));
                i = j;
            }
            b'0'..=b'9' => {
                let start = i;
                let mut j = i;
                let mut v: Option<i64> = Some(0);
                while let Some(d @ b'0'..=b'9') = bytes.get(j) {
                    v = v
                        .and_then(|v| v.checked_mul(10))
                        .and_then(|v| v.checked_add(i64::from(d - b'0')));
                    j += 1;
                }
                let v = v.ok_or_else(|| LexError {
                    msg: format!("bad integer `{}`", &src[start..j]),
                    line,
                })?;
                // Skip C suffixes (L, U, UL...).
                while j < bytes.len() && matches!(bytes[j], b'l' | b'L' | b'u' | b'U') {
                    j += 1;
                }
                toks.push(token(Class::Int, v as u64, line));
                i = j;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                let mut j = i + 1;
                while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                    j += 1;
                }
                let t = match keyword(&bytes[start..j]) {
                    Class::Ident => token(Class::Ident, span(start, j), line),
                    kw => token(kw, 0, line),
                };
                toks.push(t);
                i = j;
            }
            _ => {
                let Some((class, len)) = punct(&bytes[i..]) else {
                    // Every byte consumed so far ends an ASCII character,
                    // so `i` is a character boundary.
                    let ch = src[i..]
                        .chars()
                        .next()
                        .unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(LexError {
                        msg: format!("unexpected character `{ch}`"),
                        line,
                    });
                };
                toks.push(token(class, 0, line));
                i += len;
            }
        }
    }
    Ok(Tokens { src, toks })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind<'_>> {
        lex(src).unwrap().iter().map(|(kind, _)| kind).collect()
    }

    #[test]
    fn a_token_is_at_most_16_bytes() {
        assert!(std::mem::size_of::<Token>() <= 16);
        assert_eq!(std::mem::size_of::<Class>(), 1);
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
    fn classes_name_keywords_and_punctuators() {
        let toks = lex("while (x_1 >>= 0x10) int_ sizeof \"s\" 9").unwrap();
        let classes: Vec<Class> = toks.as_slice().iter().map(|t| t.class).collect();
        assert_eq!(
            classes,
            [
                Class::KwWhile,
                Class::LParen,
                Class::Ident,
                Class::ShrEq,
                Class::Int,
                Class::RParen,
                Class::Ident,
                Class::KwSizeof,
                Class::Str,
                Class::Int,
            ]
        );
        let texts: Vec<&str> = toks.as_slice().iter().map(|&t| toks.text(t)).collect();
        assert_eq!(
            texts,
            ["while", "(", "x_1", ">>=", "", ")", "int_", "sizeof", "s", ""]
        );
        assert!(Class::KwStatic.is_type_keyword() && !Class::KwIf.is_type_keyword());
        assert!(Class::KwAsm3.is_word() && Class::Ident.is_word() && !Class::Int.is_word());
        assert_eq!(
            format!("{:?}", toks.iter().next()),
            "Some((Ident(\"while\"), 1))"
        );
    }

    #[test]
    fn every_keyword_lexes_to_its_class_and_spells_its_text() {
        let words = "void char short int long struct volatile atomic _Atomic unsigned signed \
                     const static if else while do for return break continue sizeof asm \
                     __asm__ __asm";
        let toks = lex(words).unwrap();
        assert_eq!(toks.len(), 25);
        for (&t, word) in toks.as_slice().iter().zip(words.split_whitespace()) {
            assert!(t.class.is_word() && t.class != Class::Ident, "{word}");
            assert_eq!(t.class.text(), word);
            assert_eq!(toks.kind(t), TokenKind::Ident(word));
        }
        // A keyword's prefix or extension is a plain identifier.
        let toks = lex("in ints _asm").unwrap();
        assert!(toks.as_slice().iter().all(|t| t.class == Class::Ident));
    }

    #[test]
    fn integer_literal_overflow_is_an_error() {
        assert_eq!(
            kinds("9223372036854775807 0x7fffffffffffffff"),
            [TokenKind::Int(i64::MAX), TokenKind::Int(i64::MAX)]
        );
        assert_eq!(
            lex("9223372036854775808").unwrap_err().msg,
            "bad integer `9223372036854775808`"
        );
        assert_eq!(lex("0x").unwrap_err().msg, "bad hex literal `0x`");
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
        let lines: Vec<u32> = toks.iter().map(|(_, line)| line).collect();
        assert_eq!(lines, [1, 2, 4]);
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
