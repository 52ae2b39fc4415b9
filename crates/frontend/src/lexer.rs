//! The token scanner shared by every structured section of a `.litmus` file
//! (init block, thread columns, `locations` clause, condition).
//!
//! The header and description lines are handled line-oriented by the parser
//! (a test name like `2+2w+fence-ss` is free text, not a token sequence);
//! everything below them is tokenized here with precise line/column spans.

use crate::diag::{ParseError, Span};

/// One token of the structured `.litmus` sections. Identifiers borrow their
/// text from the input, so a token is a plain copyable value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok<'a> {
    /// An identifier: `St`, `r1`, `P2`, `a`, `FenceSS`, a label name, …
    Ident(&'a str),
    /// An unsigned integer literal (decimal, or hexadecimal with `0x`).
    Num(u64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `|`
    Pipe,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `->`
    Arrow,
    /// `/\` — the conjunction of condition terms.
    And,
    /// End of input.
    Eof,
}

impl Tok<'_> {
    /// How the token reads in an error message.
    pub(crate) fn describe(&self) -> String {
        match self {
            Tok::Ident(name) => format!("`{name}`"),
            Tok::Num(value) => format!("`{value}`"),
            Tok::LBrace => "`{`".to_string(),
            Tok::RBrace => "`}`".to_string(),
            Tok::LBracket => "`[`".to_string(),
            Tok::RBracket => "`]`".to_string(),
            Tok::LParen => "`(`".to_string(),
            Tok::RParen => "`)`".to_string(),
            Tok::Pipe => "`|`".to_string(),
            Tok::Semi => "`;`".to_string(),
            Tok::Colon => "`:`".to_string(),
            Tok::Comma => "`,`".to_string(),
            Tok::Eq => "`=`".to_string(),
            Tok::Plus => "`+`".to_string(),
            Tok::Arrow => "`->`".to_string(),
            Tok::And => "`/\\`".to_string(),
            Tok::Eof => "end of input".to_string(),
        }
    }
}

/// A token plus the position it starts at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Token<'a> {
    pub(crate) tok: Tok<'a>,
    pub(crate) span: Span,
}

/// Whether `byte` is ASCII whitespace other than a newline.
fn is_blank_byte(byte: u8) -> bool {
    matches!(byte, b' ' | b'\t' | b'\r' | b'\x0b' | b'\x0c')
}

/// Whether `byte` continues an identifier or an integer literal.
fn is_word_byte(byte: u8) -> bool {
    byte.is_ascii_alphanumeric() || byte == b'_'
}

/// The one-byte token `byte` spells, if any.
fn punctuation(byte: u8) -> Option<Tok<'static>> {
    Some(match byte {
        b'{' => Tok::LBrace,
        b'}' => Tok::RBrace,
        b'[' => Tok::LBracket,
        b']' => Tok::RBracket,
        b'(' => Tok::LParen,
        b')' => Tok::RParen,
        b'|' => Tok::Pipe,
        b';' => Tok::Semi,
        b':' => Tok::Colon,
        b',' => Tok::Comma,
        b'=' => Tok::Eq,
        b'+' => Tok::Plus,
        _ => return None,
    })
}

/// Parses an integer literal: decimal, or hexadecimal after `0x`/`0X`, with
/// `_` separators allowed anywhere.
fn parse_integer(digits: &str) -> Option<u64> {
    let cleaned;
    let digits = if digits.contains('_') {
        cleaned = digits.replace('_', "");
        cleaned.as_str()
    } else {
        digits
    };
    match digits.strip_prefix("0x").or_else(|| digits.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => digits.parse::<u64>().ok(),
    }
}

/// Tokenizes `text`, whose first line is line `start_line` of the original
/// file. `//` starts a comment running to the end of the line. The returned
/// stream always ends with a single [`Tok::Eof`].
///
/// The scan walks bytes, since every token is ASCII; a column still counts
/// characters, so a multi-byte character (in a comment, or as whitespace)
/// advances it by one.
pub(crate) fn lex(text: &str, start_line: usize) -> Result<Vec<Token<'_>>, ParseError> {
    let bytes = text.as_bytes();
    // Litmus text runs at about one token per three bytes; half a token per
    // byte leaves room so the vector never grows.
    let mut tokens = Vec::with_capacity(text.len() / 2 + 1);
    let mut line = start_line;
    let mut col = 1usize;
    let mut at = 0usize;
    while at < bytes.len() {
        let span = Span::new(line, col);
        let byte = bytes[at];
        let tok = match byte {
            b'\n' => {
                at += 1;
                line += 1;
                col = 1;
                continue;
            }
            byte if is_blank_byte(byte) => {
                let run = bytes[at..].iter().take_while(|&&b| is_blank_byte(b)).count();
                at += run;
                col += run;
                continue;
            }
            b'/' => match bytes.get(at + 1) {
                Some(b'/') => {
                    // Comment: consume to (but not including) the newline.
                    let end = bytes[at..]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map_or(bytes.len(), |n| at + n);
                    col += text[at..end].chars().count();
                    at = end;
                    continue;
                }
                Some(b'\\') => {
                    at += 2;
                    col += 2;
                    Tok::And
                }
                _ => return Err(ParseError::new(span, "expected `//` comment or `/\\`")),
            },
            b'-' => {
                if bytes.get(at + 1) != Some(&b'>') {
                    return Err(ParseError::new(span, "expected `->`"));
                }
                at += 2;
                col += 2;
                Tok::Arrow
            }
            b'0'..=b'9' | b'a'..=b'z' | b'A'..=b'Z' | b'_' => {
                let end = bytes[at..]
                    .iter()
                    .position(|&b| !is_word_byte(b))
                    .map_or(bytes.len(), |n| at + n);
                let word = &text[at..end];
                col += end - at;
                at = end;
                if byte.is_ascii_digit() {
                    match parse_integer(word) {
                        Some(value) => Tok::Num(value),
                        None => {
                            return Err(ParseError::new(
                                span,
                                format!("`{word}` is not a valid integer literal"),
                            ))
                        }
                    }
                } else {
                    Tok::Ident(word)
                }
            }
            _ => {
                if let Some(tok) = punctuation(byte) {
                    at += 1;
                    col += 1;
                    tok
                } else {
                    let c = text[at..].chars().next().expect("a character starts here");
                    if !c.is_whitespace() {
                        return Err(ParseError::new(span, format!("unexpected character `{c}`")));
                    }
                    at += c.len_utf8();
                    col += 1;
                    continue;
                }
            }
        };
        tokens.push(Token { tok, span });
    }
    tokens.push(Token { tok: Tok::Eof, span: Span::new(line, col) });
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(text: &str) -> Vec<Tok<'_>> {
        lex(text, 1).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn tokenizes_an_instruction_cell() {
        assert_eq!(
            kinds("r1 = Ld [b + 8]"),
            vec![
                Tok::Ident("r1"),
                Tok::Eq,
                Tok::Ident("Ld"),
                Tok::LBracket,
                Tok::Ident("b"),
                Tok::Plus,
                Tok::Num(8),
                Tok::RBracket,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn tokenizes_condition_syntax() {
        assert_eq!(
            kinds("exists (P2:r1 = 1 /\\ a = 0x10)"),
            vec![
                Tok::Ident("exists"),
                Tok::LParen,
                Tok::Ident("P2"),
                Tok::Colon,
                Tok::Ident("r1"),
                Tok::Eq,
                Tok::Num(1),
                Tok::And,
                Tok::Ident("a"),
                Tok::Eq,
                Tok::Num(16),
                Tok::RParen,
                Tok::Eof,
            ]
        );
    }

    #[test]
    fn tracks_lines_and_columns() {
        let tokens = lex("ab cd\n  ef", 5).unwrap();
        assert_eq!(tokens[0].span, Span::new(5, 1));
        assert_eq!(tokens[1].span, Span::new(5, 4));
        assert_eq!(tokens[2].span, Span::new(6, 3));
        assert_eq!(tokens[3].tok, Tok::Eof);
    }

    #[test]
    fn comments_run_to_end_of_line() {
        assert_eq!(kinds("a // b c d\n;"), vec![Tok::Ident("a"), Tok::Semi, Tok::Eof]);
    }

    #[test]
    fn rejects_stray_characters_with_positions() {
        let err = lex("a\n  $", 1).unwrap_err();
        assert_eq!(err.span, Span::new(2, 3));
        assert!(err.message.contains('$'));
        assert!(lex("a - b", 1).unwrap_err().message.contains("->"));
        assert!(lex("a / b", 1).unwrap_err().message.contains("/\\"));
        assert!(lex("99999999999999999999999", 1).unwrap_err().message.contains("integer"));
    }

    #[test]
    fn arrow_and_branch_tokens() {
        assert_eq!(
            kinds("beq r1, 0 -> done"),
            vec![
                Tok::Ident("beq"),
                Tok::Ident("r1"),
                Tok::Comma,
                Tok::Num(0),
                Tok::Arrow,
                Tok::Ident("done"),
                Tok::Eof,
            ]
        );
    }
}
