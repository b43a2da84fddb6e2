//! Lexer for mini-C.

use std::fmt;

/// A lexical token kind. Identifiers and string literals borrow the
/// source text, so no token allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tok<'src> {
    /// An identifier or keyword.
    Ident(&'src str),
    /// An integer literal.
    Num(i64),
    /// A string literal (contents, without the quotes).
    Str(&'src str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `*`
    Star,
    /// `&`
    Amp,
    /// `=`
    Eq,
    /// `.`
    Dot,
    /// `->`
    Arrow,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `!`
    Bang,
    /// A comparison/logical operator (`==`, `!=`, `<`, `<=`, `>`, `>=`,
    /// `&&`, `||`).
    CmpOp(&'static str),
    /// End of input.
    Eof,
}

impl fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Num(n) => write!(f, "number `{n}`"),
            Tok::Str(s) => write!(f, "string literal \"{s}\""),
            Tok::LParen => write!(f, "`(`"),
            Tok::RParen => write!(f, "`)`"),
            Tok::LBrace => write!(f, "`{{`"),
            Tok::RBrace => write!(f, "`}}`"),
            Tok::LBracket => write!(f, "`[`"),
            Tok::RBracket => write!(f, "`]`"),
            Tok::Semi => write!(f, "`;`"),
            Tok::Comma => write!(f, "`,`"),
            Tok::Star => write!(f, "`*`"),
            Tok::Amp => write!(f, "`&`"),
            Tok::Eq => write!(f, "`=`"),
            Tok::Dot => write!(f, "`.`"),
            Tok::Arrow => write!(f, "`->`"),
            Tok::Plus => write!(f, "`+`"),
            Tok::Minus => write!(f, "`-`"),
            Tok::Slash => write!(f, "`/`"),
            Tok::Percent => write!(f, "`%`"),
            Tok::Bang => write!(f, "`!`"),
            Tok::CmpOp(op) => write!(f, "`{op}`"),
            Tok::Eof => write!(f, "end of input"),
        }
    }
}

/// A token with its source position (1-based line and column).
#[derive(Clone, Copy, Debug)]
pub struct Token<'src> {
    /// The token kind.
    pub tok: Tok<'src>,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

/// An error produced by the lexer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LexError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for LexError {}

/// Tokenizes mini-C source text.
///
/// Line (`//`) and block (`/* */`) comments are skipped. The final token is
/// always [`Tok::Eof`].
///
/// # Errors
///
/// Returns a [`LexError`] on unterminated block comments or characters that
/// are not part of mini-C.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let mut col: u32 = 1;

    macro_rules! push {
        ($tok:expr, $len:expr) => {{
            toks.push(Token {
                tok: $tok,
                line,
                col,
            });
            i += $len;
            col += $len as u32;
        }};
    }

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                i += 1;
                line += 1;
                col = 1;
            }
            b' ' | b'\t' | b'\r' => {
                i += 1;
                col += 1;
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let (sl, sc) = (line, col);
                i += 2;
                col += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            msg: "unterminated block comment".into(),
                            line: sl,
                            col: sc,
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        col += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
            b'(' => push!(Tok::LParen, 1),
            b')' => push!(Tok::RParen, 1),
            b'{' => push!(Tok::LBrace, 1),
            b'}' => push!(Tok::RBrace, 1),
            b'[' => push!(Tok::LBracket, 1),
            b']' => push!(Tok::RBracket, 1),
            b';' => push!(Tok::Semi, 1),
            b',' => push!(Tok::Comma, 1),
            b'*' => push!(Tok::Star, 1),
            b'.' => push!(Tok::Dot, 1),
            b'+' => push!(Tok::Plus, 1),
            b'/' => push!(Tok::Slash, 1),
            b'%' => push!(Tok::Percent, 1),
            b'&' if i + 1 < bytes.len() && bytes[i + 1] == b'&' => push!(Tok::CmpOp("&&"), 2),
            b'&' => push!(Tok::Amp, 1),
            b'|' if i + 1 < bytes.len() && bytes[i + 1] == b'|' => push!(Tok::CmpOp("||"), 2),
            b'-' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => push!(Tok::Arrow, 2),
            b'-' => push!(Tok::Minus, 1),
            b'=' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => push!(Tok::CmpOp("=="), 2),
            b'=' => push!(Tok::Eq, 1),
            b'!' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => push!(Tok::CmpOp("!="), 2),
            b'!' => push!(Tok::Bang, 1),
            b'<' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => push!(Tok::CmpOp("<="), 2),
            b'<' => push!(Tok::CmpOp("<"), 1),
            b'>' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => push!(Tok::CmpOp(">="), 2),
            b'>' => push!(Tok::CmpOp(">"), 1),
            b'\'' => {
                let (sl, sc) = (line, col);
                i += 1;
                col += 1;
                let unterminated = LexError {
                    msg: "unterminated character literal".into(),
                    line: sl,
                    col: sc,
                };
                let val = match bytes.get(i) {
                    Some(b'\\') => {
                        let esc = *bytes.get(i + 1).ok_or(unterminated.clone())?;
                        i += 2;
                        col += 2;
                        match esc {
                            b'n' => 10,
                            b't' => 9,
                            b'r' => 13,
                            b'0' => 0,
                            other => other as i64,
                        }
                    }
                    Some(&c) if c != b'\'' && c != b'\n' => {
                        i += 1;
                        col += 1;
                        c as i64
                    }
                    _ => {
                        return Err(LexError {
                            msg: "empty or unterminated character literal".into(),
                            line: sl,
                            col: sc,
                        });
                    }
                };
                if bytes.get(i) != Some(&b'\'') {
                    return Err(unterminated);
                }
                toks.push(Token {
                    tok: Tok::Num(val),
                    line: sl,
                    col: sc,
                });
                i += 1;
                col += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                let hex = bytes[i] == b'0' && matches!(bytes.get(i + 1), Some(b'x') | Some(b'X'));
                if hex {
                    i += 2;
                    while i < bytes.len() && bytes[i].is_ascii_hexdigit() {
                        i += 1;
                    }
                } else {
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                // Tolerate C integer suffixes (`100UL`, `0xFFu`).
                while i < bytes.len() && matches!(bytes[i], b'u' | b'U' | b'l' | b'L') {
                    i += 1;
                }
                let text = &src[start..i];
                let digits = text.trim_end_matches(['u', 'U', 'l', 'L']);
                let parsed = if hex {
                    i64::from_str_radix(&digits[2..], 16)
                } else {
                    digits.parse()
                };
                let n: i64 = parsed.map_err(|_| LexError {
                    msg: format!("integer literal `{text}` out of range"),
                    line,
                    col,
                })?;
                toks.push(Token {
                    tok: Tok::Num(n),
                    line,
                    col,
                });
                col += (i - start) as u32;
            }
            b'"' => {
                let (sl, sc) = (line, col);
                i += 1;
                col += 1;
                let start = i;
                loop {
                    if i >= bytes.len() || bytes[i] == b'\n' {
                        return Err(LexError {
                            msg: "unterminated string literal".into(),
                            line: sl,
                            col: sc,
                        });
                    }
                    if bytes[i] == b'"' {
                        break;
                    }
                    // Skip the character after a backslash so an escaped
                    // quote does not terminate the literal.
                    if bytes[i] == b'\\' && i + 1 < bytes.len() && bytes[i + 1] != b'\n' {
                        i += 1;
                        col += 1;
                    }
                    i += 1;
                    col += 1;
                }
                // Both ends are ASCII quotes, so the slice is on character
                // boundaries.
                toks.push(Token {
                    tok: Tok::Str(&src[start..i]),
                    line: sl,
                    col: sc,
                });
                i += 1; // closing quote
                col += 1;
            }
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                toks.push(Token {
                    tok: Tok::Ident(&src[start..i]),
                    line,
                    col,
                });
                col += (i - start) as u32;
            }
            other => {
                // Decode the real character (the input is valid UTF-8)
                // instead of casting the lead byte, which would mangle
                // non-ASCII input in the diagnostic.
                let msg = match src.get(i..).and_then(|s| s.chars().next()) {
                    Some(c) if !c.is_control() => format!("unexpected character `{c}`"),
                    _ => format!("unexpected byte 0x{other:02x}"),
                };
                return Err(LexError { msg, line, col });
            }
        }
    }
    toks.push(Token {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<Tok<'_>> {
        tokenize(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn lexes_pointer_assignment() {
        assert_eq!(
            kinds("*x = &y;"),
            vec![
                Tok::Star,
                Tok::Ident("x"),
                Tok::Eq,
                Tok::Amp,
                Tok::Ident("y"),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn distinguishes_arrow_from_minus() {
        assert_eq!(
            kinds("p->f - 1"),
            vec![
                Tok::Ident("p"),
                Tok::Arrow,
                Tok::Ident("f"),
                Tok::Minus,
                Tok::Num(1),
                Tok::Eof
            ]
        );
    }

    #[test]
    fn skips_comments() {
        assert_eq!(
            kinds("a // line\n /* block\n comment */ b"),
            vec![Tok::Ident("a"), Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn tracks_positions() {
        let toks = tokenize("x\n  y").unwrap();
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn rejects_unterminated_comment() {
        assert!(tokenize("/* oops").is_err());
    }

    #[test]
    fn rejects_unknown_character() {
        let err = tokenize("a # b").unwrap_err();
        assert!(err.to_string().contains('#'));
    }

    #[test]
    fn lexes_string_literals() {
        assert_eq!(
            kinds(r#"x = "hi \"there\"";"#),
            vec![
                Tok::Ident("x"),
                Tok::Eq,
                Tok::Str(r#"hi \"there\""#),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn rejects_unterminated_string() {
        let err = tokenize("x = \"oops;\n").unwrap_err();
        assert!(err.to_string().contains("unterminated string"), "{err}");
        assert_eq!((err.line, err.col), (1, 5));
        let err = tokenize("x = \"eof").unwrap_err();
        assert!(err.to_string().contains("unterminated string"), "{err}");
    }

    #[test]
    fn non_ascii_is_reported_cleanly() {
        let err = tokenize("int caf\u{e9};").unwrap_err();
        assert!(err.to_string().contains('\u{e9}'), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn lexes_char_and_hex_literals() {
        assert_eq!(
            kinds("c = 'a'; d = '\\n'; e = 0xFF; f = 100UL;"),
            vec![
                Tok::Ident("c"),
                Tok::Eq,
                Tok::Num(97),
                Tok::Semi,
                Tok::Ident("d"),
                Tok::Eq,
                Tok::Num(10),
                Tok::Semi,
                Tok::Ident("e"),
                Tok::Eq,
                Tok::Num(255),
                Tok::Semi,
                Tok::Ident("f"),
                Tok::Eq,
                Tok::Num(100),
                Tok::Semi,
                Tok::Eof
            ]
        );
    }

    #[test]
    fn lexes_percent() {
        assert_eq!(
            kinds("a % b"),
            vec![Tok::Ident("a"), Tok::Percent, Tok::Ident("b"), Tok::Eof]
        );
    }

    #[test]
    fn rejects_bad_char_literal() {
        assert!(tokenize("c = '';").is_err());
        assert!(tokenize("c = 'ab';").is_err());
        assert!(tokenize("c = 'a").is_err());
    }

    #[test]
    fn compound_operators() {
        assert_eq!(
            kinds("a == b != c && d || e <= f"),
            vec![
                Tok::Ident("a"),
                Tok::CmpOp("=="),
                Tok::Ident("b"),
                Tok::CmpOp("!="),
                Tok::Ident("c"),
                Tok::CmpOp("&&"),
                Tok::Ident("d"),
                Tok::CmpOp("||"),
                Tok::Ident("e"),
                Tok::CmpOp("<="),
                Tok::Ident("f"),
                Tok::Eof
            ]
        );
    }
}
