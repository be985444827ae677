//! Lexer for the generic IR textual format.
//!
//! The same tokens serve the IR text parser, dialect-defined custom syntax
//! hooks, the IRDL parser and the pattern DSL. Comments run from `//` to
//! end of line.
//!
//! Lexing is **pull-based**: [`Lexer::next_token`] hands out one token per
//! call, and parsers read through a [`TokenStream`] with two tokens of
//! lookahead, so no parser ever materializes a token vector. A lex error
//! ends the stream with [`Token::Eof`]; [`TokenStream::finish`] then puts
//! that error ahead of the parse result, so a parser reports exactly the
//! diagnostic [`lex`] would have. [`lex`] itself is a thin collector over
//! the same [`Lexer`].
//!
//! Tokens are **zero-copy**: every payload is a `&str` slice of the source
//! buffer (string literals use a [`Cow`] that only owns its data when the
//! literal contains escapes), so lexing performs no per-token heap
//! allocation. Code that must retain tokens beyond the source's lifetime
//! (pre-lexed format-spec literals) stores a [`TokenBuf`], which owns the
//! text and re-materializes borrowed tokens on demand.

use std::borrow::Cow;

use crate::diag::{Diagnostic, Result};

/// A half-open byte range `[start, end)` into the source buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Byte offset of the first byte of the token.
    pub start: usize,
    /// Byte offset one past the last byte of the token.
    pub end: usize,
}

impl Span {
    /// Returns the source text covered by this span.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        &source[self.start..self.end]
    }
}

/// A lexical token borrowing its payload from the source buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'s> {
    /// Bare identifier or keyword (may contain `.`, `_`, `$`, digits).
    Ident(&'s str),
    /// `%name` SSA value id (payload excludes the sigil).
    ValueId(&'s str),
    /// `^name` block label (payload excludes the sigil).
    BlockId(&'s str),
    /// `@name` symbol reference (payload excludes the sigil).
    SymbolRef(&'s str),
    /// `!name` type reference (payload excludes the sigil).
    TypeRef(&'s str),
    /// `#name` attribute reference (payload excludes the sigil).
    AttrRef(&'s str),
    /// Integer literal. `hex` records whether it was written as `0x...`.
    Integer {
        /// Parsed value.
        value: i128,
        /// Whether the literal was hexadecimal (used for float bit patterns).
        hex: bool,
    },
    /// Floating-point literal.
    Float(f64),
    /// String literal (unescaped payload; borrowed unless escapes occur).
    Str(Cow<'s, str>),
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
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `=`
    Equals,
    /// `->`
    Arrow,
    /// `?`
    Question,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `.`
    Dot,
    /// End of input.
    Eof,
}

impl Token<'_> {
    /// A short human-readable description for diagnostics.
    pub fn describe(&self) -> String {
        match self {
            Token::Ident(s) => format!("`{s}`"),
            Token::ValueId(s) => format!("`%{s}`"),
            Token::BlockId(s) => format!("`^{s}`"),
            Token::SymbolRef(s) => format!("`@{s}`"),
            Token::TypeRef(s) => format!("`!{s}`"),
            Token::AttrRef(s) => format!("`#{s}`"),
            Token::Integer { value, .. } => format!("`{value}`"),
            Token::Float(v) => format!("`{v}`"),
            Token::Str(s) => format!("\"{s}\""),
            Token::LParen => "`(`".into(),
            Token::RParen => "`)`".into(),
            Token::LBrace => "`{`".into(),
            Token::RBrace => "`}`".into(),
            Token::LBracket => "`[`".into(),
            Token::RBracket => "`]`".into(),
            Token::Lt => "`<`".into(),
            Token::Gt => "`>`".into(),
            Token::Comma => "`,`".into(),
            Token::Colon => "`:`".into(),
            Token::Equals => "`=`".into(),
            Token::Arrow => "`->`".into(),
            Token::Question => "`?`".into(),
            Token::Star => "`*`".into(),
            Token::Plus => "`+`".into(),
            Token::Dot => "`.`".into(),
            Token::Eof => "end of input".into(),
        }
    }
}

/// A token plus its byte span in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Spanned<'s> {
    /// The token.
    pub token: Token<'s>,
    /// Byte span of the token, including sigils and string quotes.
    pub span: Span,
}

impl Spanned<'_> {
    /// Byte offset of the token start (diagnostic anchor).
    pub fn offset(&self) -> usize {
        self.span.start
    }
}

/// A pull lexer over one source buffer: each [`Lexer::next_token`] call
/// scans one token.
///
/// The end of input, and every call after a lex error, yields
/// [`Token::Eof`] spanning `source.len()..source.len()`. The error itself
/// is kept in the lexer (see [`Lexer::error`]) instead of being threaded
/// through every token, so the per-token path carries no `Result`.
#[derive(Debug)]
pub struct Lexer<'s> {
    source: &'s str,
    pos: usize,
    error: Option<Diagnostic>,
}

impl<'s> Lexer<'s> {
    /// A lexer positioned at the start of `source`.
    pub fn new(source: &'s str) -> Self {
        Lexer { source, pos: 0, error: None }
    }

    /// The lex error that ended the stream, if any.
    pub fn error(&self) -> Option<&Diagnostic> {
        self.error.as_ref()
    }

    /// Scans the next token.
    pub fn next_token(&mut self) -> Spanned<'s> {
        let source = self.source;
        let bytes = source.as_bytes();
        let mut pos = self.pos;
        while pos < bytes.len() {
            let start = pos;
            let ch = bytes[pos] as char;
            let token = match ch {
                ' ' | '\t' | '\r' | '\n' => {
                    // Indentation comes in runs; skip a run in one tight loop.
                    pos += 1;
                    while pos < bytes.len() && matches!(bytes[pos], b' ' | b'\t' | b'\r' | b'\n') {
                        pos += 1;
                    }
                    continue;
                }
                '/' if bytes.get(pos + 1) == Some(&b'/') => {
                    while pos < bytes.len() && bytes[pos] != b'\n' {
                        pos += 1;
                    }
                    continue;
                }
                '(' => Token::LParen,
                ')' => Token::RParen,
                '{' => Token::LBrace,
                '}' => Token::RBrace,
                '[' => Token::LBracket,
                ']' => Token::RBracket,
                '<' => Token::Lt,
                '>' => Token::Gt,
                ',' => Token::Comma,
                ':' => Token::Colon,
                '=' => Token::Equals,
                '?' => Token::Question,
                '*' => Token::Star,
                '+' => Token::Plus,
                '.' => Token::Dot,
                '-' => {
                    if bytes.get(pos + 1) == Some(&b'>') {
                        pos += 1;
                        Token::Arrow
                    } else if bytes.get(pos + 1).is_some_and(|b| b.is_ascii_digit()) {
                        pos += 1;
                        match lex_number(source, &mut pos, true) {
                            Ok(token) => return self.emit(token, start, pos),
                            Err(diag) => return self.fail(diag),
                        }
                    } else {
                        return self.fail(Diagnostic::at(start, "unexpected `-`"));
                    }
                }
                '"' => match lex_string(source, &mut pos) {
                    Ok(token) => return self.emit(token, start, pos),
                    Err(diag) => return self.fail(diag),
                },
                '%' | '^' | '@' | '!' | '#' => {
                    pos += 1;
                    let ident = lex_ident_text(source, &mut pos);
                    if ident.is_empty() {
                        return self.fail(Diagnostic::at(
                            start,
                            format!("expected identifier after `{ch}`"),
                        ));
                    }
                    let token = match ch {
                        '%' => Token::ValueId(ident),
                        '^' => Token::BlockId(ident),
                        '@' => Token::SymbolRef(ident),
                        '!' => Token::TypeRef(ident),
                        _ => Token::AttrRef(ident),
                    };
                    return self.emit(token, start, pos);
                }
                c if c.is_ascii_digit() => match lex_number(source, &mut pos, false) {
                    Ok(token) => return self.emit(token, start, pos),
                    Err(diag) => return self.fail(diag),
                },
                c if c.is_ascii_alphabetic() || c == '_' || c == '$' => {
                    let ident = lex_ident_text(source, &mut pos);
                    return self.emit(Token::Ident(ident), start, pos);
                }
                other => {
                    return self
                        .fail(Diagnostic::at(start, format!("unexpected character `{other}`")))
                }
            };
            // Single-byte punctuation (and the last byte of `->`).
            return self.emit(token, start, pos + 1);
        }
        self.pos = pos;
        self.eof()
    }

    #[inline]
    fn emit(&mut self, token: Token<'s>, start: usize, end: usize) -> Spanned<'s> {
        self.pos = end;
        Spanned { token, span: Span { start, end } }
    }

    fn eof(&self) -> Spanned<'s> {
        let end = self.source.len();
        Spanned { token: Token::Eof, span: Span { start: end, end } }
    }

    /// Records `diag` and ends the stream.
    #[cold]
    #[inline(never)]
    fn fail(&mut self, diag: Diagnostic) -> Spanned<'s> {
        self.error = Some(diag);
        self.pos = self.source.len();
        self.eof()
    }
}

/// A parser's cursor over a [`Lexer`]: the current token plus one more of
/// lookahead, scanned only when [`TokenStream::peek2`] asks for it.
///
/// Parsers call [`TokenStream::finish`] on their result, which makes a lex
/// error anywhere in the source win over the parse outcome — the rule that
/// keeps every diagnostic identical to lexing the whole source up front.
#[derive(Debug)]
pub struct TokenStream<'s> {
    lexer: Lexer<'s>,
    current: Spanned<'s>,
    lookahead: Option<Spanned<'s>>,
}

impl<'s> TokenStream<'s> {
    /// A stream positioned at the first token of `source`.
    pub fn new(source: &'s str) -> Self {
        let mut lexer = Lexer::new(source);
        let current = lexer.next_token();
        TokenStream { lexer, current, lookahead: None }
    }

    /// The current token.
    #[inline]
    pub fn peek(&self) -> &Token<'s> {
        &self.current.token
    }

    /// The token after the current one.
    pub fn peek2(&mut self) -> &Token<'s> {
        let lexer = &mut self.lexer;
        &self.lookahead.get_or_insert_with(|| lexer.next_token()).token
    }

    /// Byte offset of the current token (the diagnostic anchor).
    #[inline]
    pub fn offset(&self) -> usize {
        self.current.span.start
    }

    /// Takes the current token and advances. At the end of input this
    /// keeps returning [`Token::Eof`].
    #[inline]
    pub fn bump(&mut self) -> Token<'s> {
        let next = match self.lookahead.take() {
            Some(next) => next,
            None => self.lexer.next_token(),
        };
        std::mem::replace(&mut self.current, next).token
    }

    /// Settles a parse over this stream: the first lex error in the source,
    /// if there is one, replaces `result`.
    ///
    /// A successful parse has already pulled every token, so the rest of
    /// the source is scanned only after a parse error.
    ///
    /// # Errors
    ///
    /// Returns the lex error, or else `result`'s own error.
    pub fn finish<T>(&mut self, result: Result<T>) -> Result<T> {
        if self.lexer.error.is_none() {
            while !matches!(self.lexer.next_token().token, Token::Eof) {}
        }
        match self.lexer.error.take() {
            Some(diag) => Err(diag),
            None => result,
        }
    }
}

/// Tokenizes `source` into a vector ending with [`Token::Eof`]: a
/// collector over [`Lexer`] for callers that want the whole sequence.
///
/// # Errors
///
/// Returns a diagnostic on malformed literals or unexpected characters.
pub fn lex(source: &str) -> Result<Vec<Spanned<'_>>> {
    let mut lexer = Lexer::new(source);
    // One token spans ~4+ source bytes on average; sizing up front keeps
    // small inputs to a single buffer allocation.
    let mut tokens = Vec::with_capacity(source.len() / 4 + 4);
    loop {
        let spanned = lexer.next_token();
        let end = matches!(spanned.token, Token::Eof);
        tokens.push(spanned);
        if end {
            break;
        }
    }
    match lexer.error {
        Some(diag) => Err(diag),
        None => Ok(tokens),
    }
}

/// Identifiers may contain letters, digits, `_`, `$`, and (for dialect
/// qualification and value suffixes) `.` and `#`.
/// Byte-class table: `true` for bytes that may continue an identifier
/// (`[A-Za-z0-9_$.#]`). One indexed load per byte in the hottest scan.
static IDENT_CONTINUE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = 0usize;
    while b < 256 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric()
            || c == b'_'
            || c == b'$'
            || c == b'.'
            || c == b'#';
        b += 1;
    }
    table
};

fn lex_ident_text<'s>(source: &'s str, pos: &mut usize) -> &'s str {
    let bytes = source.as_bytes();
    let start = *pos;
    while *pos < bytes.len() && IDENT_CONTINUE[bytes[*pos] as usize] {
        *pos += 1;
    }
    &source[start..*pos]
}

fn lex_number<'s>(source: &'s str, pos: &mut usize, negative: bool) -> Result<Token<'s>> {
    let bytes = source.as_bytes();
    let start = *pos;
    if bytes.get(*pos) == Some(&b'0')
        && matches!(bytes.get(*pos + 1), Some(&b'x') | Some(&b'X'))
    {
        *pos += 2;
        let hex_start = *pos;
        while *pos < bytes.len() && (bytes[*pos] as char).is_ascii_hexdigit() {
            *pos += 1;
        }
        let digits = &source[hex_start..*pos];
        if digits.is_empty() {
            return Err(Diagnostic::at(start, "expected hex digits after `0x`"));
        }
        let value = u128::from_str_radix(digits, 16)
            .ok()
            .and_then(|v| i128::try_from(v).ok())
            .ok_or_else(|| Diagnostic::at(start, "hex literal out of range"))?;
        return Ok(Token::Integer { value: if negative { -value } else { value }, hex: true });
    }
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
    }
    let mut is_float = false;
    // Fractional part: `.` followed by a digit (a bare `.` is left for
    // dialect-qualified names and parameter paths).
    if bytes.get(*pos) == Some(&b'.') && bytes.get(*pos + 1).is_some_and(|b| b.is_ascii_digit()) {
        is_float = true;
        *pos += 1;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
        }
    }
    // Exponent.
    if matches!(bytes.get(*pos), Some(&b'e') | Some(&b'E')) {
        let mut look = *pos + 1;
        if matches!(bytes.get(look), Some(&b'+') | Some(&b'-')) {
            look += 1;
        }
        if bytes.get(look).is_some_and(|b| b.is_ascii_digit()) {
            is_float = true;
            *pos = look;
            while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
                *pos += 1;
            }
        }
    }
    let text = &source[start..*pos];
    if is_float {
        let value: f64 = text
            .parse()
            .map_err(|_| Diagnostic::at(start, format!("invalid float literal `{text}`")))?;
        Ok(Token::Float(if negative { -value } else { value }))
    } else {
        let value: i128 = text
            .parse()
            .map_err(|_| Diagnostic::at(start, format!("invalid integer literal `{text}`")))?;
        Ok(Token::Integer { value: if negative { -value } else { value }, hex: false })
    }
}

/// Lexes a string literal. The fast path — no escapes — returns a borrowed
/// slice of the source; escaped contents are unescaped into an owned copy.
fn lex_string<'s>(source: &'s str, pos: &mut usize) -> Result<Token<'s>> {
    let bytes = source.as_bytes();
    let start = *pos;
    *pos += 1; // opening quote
    let contents_start = *pos;
    // Scan ahead: an escape-free literal is a straight slice.
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'"' => {
                let contents = &source[contents_start..*pos];
                *pos += 1;
                return Ok(Token::Str(Cow::Borrowed(contents)));
            }
            b'\\' => break,
            _ => *pos += 1,
        }
    }
    if *pos >= bytes.len() {
        return Err(Diagnostic::at(start, "unterminated string literal"));
    }
    // Slow path: escapes present. Copy what was scanned, then unescape.
    let mut out = String::with_capacity(*pos - contents_start + 16);
    out.push_str(&source[contents_start..*pos]);
    while *pos < bytes.len() {
        let ch = bytes[*pos] as char;
        match ch {
            '"' => {
                *pos += 1;
                return Ok(Token::Str(Cow::Owned(out)));
            }
            '\\' => {
                *pos += 1;
                let esc = bytes
                    .get(*pos)
                    .copied()
                    .ok_or_else(|| Diagnostic::at(start, "unterminated string escape"))?
                    as char;
                *pos += 1;
                match esc {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    other => {
                        return Err(Diagnostic::at(
                            *pos - 1,
                            format!("unknown escape `\\{other}`"),
                        ))
                    }
                }
            }
            _ => {
                // Multi-byte UTF-8: copy the full scalar.
                let s = &source[*pos..];
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Err(Diagnostic::at(start, "unterminated string literal"))
}

// ---------------------------------------------------------------------------
// Owned token sequences
// ---------------------------------------------------------------------------

/// Token kind plus whatever payload a span into the owning text cannot
/// reconstruct for free.
#[derive(Debug, Clone, PartialEq)]
enum TokenInfo {
    /// Ident-like token; the payload (sans sigil) is a span into the text.
    Ident,
    ValueId,
    BlockId,
    SymbolRef,
    TypeRef,
    AttrRef,
    /// Numeric literals keep their parsed value.
    Integer { value: i128, hex: bool },
    Float(f64),
    /// String literal; the span covers the raw (still-escaped) contents.
    Str { escaped: bool },
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Lt,
    Gt,
    Comma,
    Colon,
    Equals,
    Arrow,
    Question,
    Star,
    Plus,
    Dot,
}

/// An owned, self-contained token sequence.
///
/// Pre-lexed once from a text fragment and retained indefinitely (format
/// specs store these for their literal chunks); [`TokenBuf::get`]
/// re-materializes borrowed [`Token`]s against the owned text, so matching
/// against a retained sequence stays allocation-free except for escaped
/// string literals (which re-unescape lazily).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TokenBuf {
    text: String,
    /// `(kind, payload span into text)` pairs; the trailing `Eof` is dropped.
    toks: Vec<(TokenInfo, Span)>,
}

impl TokenBuf {
    /// Lexes `text` into an owned token sequence (without the trailing
    /// [`Token::Eof`]).
    ///
    /// # Errors
    ///
    /// Propagates lexer diagnostics.
    pub fn lex(text: &str) -> Result<TokenBuf> {
        let mut toks = Vec::new();
        for spanned in lex(text)? {
            let Span { start, end } = spanned.span;
            let (info, payload) = match spanned.token {
                Token::Eof => continue,
                Token::Ident(_) => (TokenInfo::Ident, Span { start, end }),
                Token::ValueId(_) => (TokenInfo::ValueId, Span { start: start + 1, end }),
                Token::BlockId(_) => (TokenInfo::BlockId, Span { start: start + 1, end }),
                Token::SymbolRef(_) => (TokenInfo::SymbolRef, Span { start: start + 1, end }),
                Token::TypeRef(_) => (TokenInfo::TypeRef, Span { start: start + 1, end }),
                Token::AttrRef(_) => (TokenInfo::AttrRef, Span { start: start + 1, end }),
                Token::Integer { value, hex } => {
                    (TokenInfo::Integer { value, hex }, Span { start, end })
                }
                Token::Float(v) => (TokenInfo::Float(v), Span { start, end }),
                Token::Str(_) => {
                    // Payload: raw contents between the quotes.
                    let contents = Span { start: start + 1, end: end - 1 };
                    let escaped = text[contents.start..contents.end].contains('\\');
                    (TokenInfo::Str { escaped }, contents)
                }
                Token::LParen => (TokenInfo::LParen, spanned.span),
                Token::RParen => (TokenInfo::RParen, spanned.span),
                Token::LBrace => (TokenInfo::LBrace, spanned.span),
                Token::RBrace => (TokenInfo::RBrace, spanned.span),
                Token::LBracket => (TokenInfo::LBracket, spanned.span),
                Token::RBracket => (TokenInfo::RBracket, spanned.span),
                Token::Lt => (TokenInfo::Lt, spanned.span),
                Token::Gt => (TokenInfo::Gt, spanned.span),
                Token::Comma => (TokenInfo::Comma, spanned.span),
                Token::Colon => (TokenInfo::Colon, spanned.span),
                Token::Equals => (TokenInfo::Equals, spanned.span),
                Token::Arrow => (TokenInfo::Arrow, spanned.span),
                Token::Question => (TokenInfo::Question, spanned.span),
                Token::Star => (TokenInfo::Star, spanned.span),
                Token::Plus => (TokenInfo::Plus, spanned.span),
                Token::Dot => (TokenInfo::Dot, spanned.span),
            };
            toks.push((info, payload));
        }
        Ok(TokenBuf { text: text.to_string(), toks })
    }

    /// The original text this sequence was lexed from.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Number of tokens (the trailing `Eof` is not stored).
    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// Returns `true` if the sequence holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.toks.is_empty()
    }

    /// Re-materializes token `i` as a [`Token`] borrowing from this buffer.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> Token<'_> {
        let (info, span) = &self.toks[i];
        let payload = || &self.text[span.start..span.end];
        match info {
            TokenInfo::Ident => Token::Ident(payload()),
            TokenInfo::ValueId => Token::ValueId(payload()),
            TokenInfo::BlockId => Token::BlockId(payload()),
            TokenInfo::SymbolRef => Token::SymbolRef(payload()),
            TokenInfo::TypeRef => Token::TypeRef(payload()),
            TokenInfo::AttrRef => Token::AttrRef(payload()),
            TokenInfo::Integer { value, hex } => Token::Integer { value: *value, hex: *hex },
            TokenInfo::Float(v) => Token::Float(*v),
            TokenInfo::Str { escaped: false } => Token::Str(Cow::Borrowed(payload())),
            TokenInfo::Str { escaped: true } => {
                let mut out = String::with_capacity(span.end - span.start);
                let mut chars = payload().chars();
                while let Some(c) = chars.next() {
                    if c == '\\' {
                        match chars.next() {
                            Some('n') => out.push('\n'),
                            Some('t') => out.push('\t'),
                            Some(other) => out.push(other),
                            None => break,
                        }
                    } else {
                        out.push(c);
                    }
                }
                Token::Str(Cow::Owned(out))
            }
            TokenInfo::LParen => Token::LParen,
            TokenInfo::RParen => Token::RParen,
            TokenInfo::LBrace => Token::LBrace,
            TokenInfo::RBrace => Token::RBrace,
            TokenInfo::LBracket => Token::LBracket,
            TokenInfo::RBracket => Token::RBracket,
            TokenInfo::Lt => Token::Lt,
            TokenInfo::Gt => Token::Gt,
            TokenInfo::Comma => Token::Comma,
            TokenInfo::Colon => Token::Colon,
            TokenInfo::Equals => Token::Equals,
            TokenInfo::Arrow => Token::Arrow,
            TokenInfo::Question => Token::Question,
            TokenInfo::Star => Token::Star,
            TokenInfo::Plus => Token::Plus,
            TokenInfo::Dot => Token::Dot,
        }
    }

    /// Iterates over re-materialized borrowed tokens.
    pub fn iter(&self) -> impl Iterator<Item = Token<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(source: &str) -> Vec<Token<'_>> {
        lex(source).unwrap().into_iter().map(|s| s.token).collect()
    }

    #[test]
    fn lex_basic_op() {
        let toks = kinds("%0 = \"cmath.mul\"(%a, %b) : (f32) -> f32");
        assert_eq!(
            toks,
            vec![
                Token::ValueId("0"),
                Token::Equals,
                Token::Str("cmath.mul".into()),
                Token::LParen,
                Token::ValueId("a"),
                Token::Comma,
                Token::ValueId("b"),
                Token::RParen,
                Token::Colon,
                Token::LParen,
                Token::Ident("f32"),
                Token::RParen,
                Token::Arrow,
                Token::Ident("f32"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_numbers() {
        assert_eq!(
            kinds("42 -7 1.5 -2.5e10 0x1F"),
            vec![
                Token::Integer { value: 42, hex: false },
                Token::Integer { value: -7, hex: false },
                Token::Float(1.5),
                Token::Float(-2.5e10),
                Token::Integer { value: 0x1F, hex: true },
                Token::Eof,
            ]
        );
    }

    #[test]
    fn negative_hex_literals() {
        assert_eq!(
            kinds("-0x1F"),
            vec![Token::Integer { value: -0x1F, hex: true }, Token::Eof]
        );
    }

    #[test]
    fn oversized_hex_literal_is_an_error() {
        // 33 hex digits: exceeds i128.
        assert!(lex("0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF").is_err());
    }

    #[test]
    fn lex_sigils() {
        assert_eq!(
            kinds("!cmath.complex #foo.bar ^bb0 @main"),
            vec![
                Token::TypeRef("cmath.complex"),
                Token::AttrRef("foo.bar"),
                Token::BlockId("bb0"),
                Token::SymbolRef("main"),
                Token::Eof,
            ]
        );
    }

    #[test]
    fn lex_string_escapes() {
        assert_eq!(
            kinds(r#""a\"b\n\\c""#),
            vec![Token::Str("a\"b\n\\c".into()), Token::Eof]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            kinds("a // comment\nb"),
            vec![Token::Ident("a"), Token::Ident("b"), Token::Eof]
        );
    }

    #[test]
    fn value_id_with_result_number() {
        assert_eq!(kinds("%x#1"), vec![Token::ValueId("x#1"), Token::Eof]);
    }

    #[test]
    fn error_on_unterminated_string() {
        assert!(lex("\"abc").is_err());
    }

    #[test]
    fn dot_after_integer_stays_separate() {
        // `1.foo` is Integer(1), Dot, Ident — needed for parameter paths.
        assert_eq!(
            kinds("1.x"),
            vec![Token::Integer { value: 1, hex: false }, Token::Dot, Token::Ident("x"), Token::Eof]
        );
    }

    // ----- Zero-copy guarantees --------------------------------------------

    #[test]
    fn spans_cover_token_text() {
        let source = "%abc = foo.bar !t<0x1F, \"s\"> // tail";
        let toks = lex(source).unwrap();
        let texts: Vec<&str> = toks.iter().map(|s| s.span.text(source)).collect();
        assert_eq!(
            texts,
            vec!["%abc", "=", "foo.bar", "!t", "<", "0x1F", ",", "\"s\"", ">", ""]
        );
    }

    #[test]
    fn ident_payloads_are_source_slices() {
        let source = "%val ^blk @sym !ty #at name";
        for spanned in lex(source).unwrap() {
            let payload = match spanned.token {
                Token::ValueId(s)
                | Token::BlockId(s)
                | Token::SymbolRef(s)
                | Token::TypeRef(s)
                | Token::AttrRef(s)
                | Token::Ident(s) => s,
                _ => continue,
            };
            // The payload must literally be a sub-slice of the source buffer.
            let src_range = source.as_bytes().as_ptr_range();
            let pay_range = payload.as_bytes().as_ptr_range();
            assert!(src_range.start <= pay_range.start && pay_range.end <= src_range.end);
            // And the span (minus any sigil) must point at the same text.
            let text = spanned.span.text(source);
            assert!(text.ends_with(payload), "{text} should end with {payload}");
        }
    }

    #[test]
    fn escape_free_strings_borrow() {
        let toks = lex(r#""plain text""#).unwrap();
        match &toks[0].token {
            Token::Str(Cow::Borrowed(s)) => assert_eq!(*s, "plain text"),
            other => panic!("expected borrowed Str, got {other:?}"),
        }
    }

    #[test]
    fn escaped_strings_own() {
        let toks = lex(r#""a\tb""#).unwrap();
        match &toks[0].token {
            Token::Str(Cow::Owned(s)) => assert_eq!(s, "a\tb"),
            other => panic!("expected owned Str, got {other:?}"),
        }
    }

    #[test]
    fn hex_literal_span_includes_prefix() {
        let source = "0xFF";
        let toks = lex(source).unwrap();
        assert_eq!(toks[0].span, Span { start: 0, end: 4 });
        assert_eq!(toks[0].span.text(source), "0xFF");
        assert_eq!(toks[0].token, Token::Integer { value: 255, hex: true });
    }

    #[test]
    fn string_span_includes_quotes() {
        let source = r#"x "a\nb" y"#;
        let toks = lex(source).unwrap();
        assert_eq!(toks[1].span.text(source), r#""a\nb""#);
        assert_eq!(toks[1].token, Token::Str("a\nb".into()));
    }

    // ----- Pull lexing -------------------------------------------------------

    #[test]
    fn pull_lexer_yields_the_collected_sequence() {
        let source = "%abc = foo.bar !t<0x1F, \"s\\n\"> -> -2.5e3 // tail\n^bb @f";
        let mut lexer = Lexer::new(source);
        let mut pulled = Vec::new();
        loop {
            let spanned = lexer.next_token();
            let end = spanned.token == Token::Eof;
            pulled.push(spanned);
            if end {
                break;
            }
        }
        assert_eq!(pulled, lex(source).unwrap());
        assert!(lexer.error().is_none());
    }

    #[test]
    fn lex_error_ends_the_stream() {
        let source = "a ~ b";
        let mut lexer = Lexer::new(source);
        assert_eq!(lexer.next_token().token, Token::Ident("a"));
        for _ in 0..2 {
            let spanned = lexer.next_token();
            assert_eq!(spanned.token, Token::Eof);
            assert_eq!(spanned.span, Span { start: 5, end: 5 });
        }
        assert_eq!(lexer.error(), Some(&lex(source).unwrap_err()));
        assert_eq!(lexer.error().and_then(Diagnostic::offset), Some(2));
    }

    #[test]
    fn token_stream_lookahead_and_bump() {
        let mut stream = TokenStream::new("( ) x");
        assert_eq!(stream.peek(), &Token::LParen);
        assert_eq!(stream.peek2(), &Token::RParen);
        assert_eq!(stream.offset(), 0);
        assert_eq!(stream.bump(), Token::LParen);
        assert_eq!(stream.offset(), 2);
        assert_eq!(stream.bump(), Token::RParen);
        assert_eq!(stream.peek2(), &Token::Eof);
        assert_eq!(stream.bump(), Token::Ident("x"));
        assert_eq!(stream.bump(), Token::Eof);
        assert_eq!(stream.bump(), Token::Eof);
        assert_eq!(stream.offset(), 5);
        assert_eq!(stream.finish(Ok(7)), Ok(7));
    }

    #[test]
    fn finish_puts_a_later_lex_error_ahead_of_the_parse_error() {
        let source = "x y z \"unterminated";
        let mut stream = TokenStream::new(source);
        stream.bump();
        let parse_error: Result<()> = Err(Diagnostic::at(2, "parse error"));
        assert_eq!(stream.finish(parse_error), Err(lex(source).unwrap_err()));
        // A parse error with no lex error anywhere stands.
        let mut clean = TokenStream::new("x y z");
        let parse_error: Result<()> = Err(Diagnostic::at(2, "parse error"));
        assert_eq!(clean.finish(parse_error.clone()), parse_error);
    }

    // ----- TokenBuf ---------------------------------------------------------

    #[test]
    fn token_buf_roundtrips() {
        let text = "foo (%x) : 42 -> \"lit\" 1.5 !t";
        let buf = TokenBuf::lex(text).unwrap();
        let direct: Vec<Token<'_>> = lex(text)
            .unwrap()
            .into_iter()
            .map(|s| s.token)
            .filter(|t| *t != Token::Eof)
            .collect();
        let rebuilt: Vec<Token<'_>> = buf.iter().collect();
        assert_eq!(rebuilt, direct);
    }

    #[test]
    fn token_buf_unescapes_lazily() {
        let buf = TokenBuf::lex(r#""a\"b""#).unwrap();
        assert_eq!(buf.get(0), Token::Str("a\"b".into()));
    }

    #[test]
    fn token_buf_reports_lex_errors() {
        assert!(TokenBuf::lex("\"unterminated").is_err());
    }
}
