//! Full-text Rust lexer — the foundation of the token-tree engine.
//!
//! Unlike the original per-line masking scanner, this lexer walks the
//! *whole file* as one character stream, so constructs that span lines
//! (raw strings, multi-line string literals, nested block comments) are
//! classified correctly, and `'a` lifetimes are separated from `'x'` char
//! literals by a full lookahead instead of a two-character peek.
//!
//! One pass produces three views that the rest of the engine consumes:
//!
//! 1. a token stream ([`Token`]) — identifiers, lifetimes, literals and
//!    (greedily combined) punctuation, each tagged with its 1-based line;
//! 2. per-line *code masks* (comments and literal contents blanked) that
//!    the original line-oriented rules keep using unchanged;
//! 3. per-line *comment text*, from which `apc-lint:` directives and doc
//!    anchors are read back out.

/// Classification of one lexed token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `carry`, `Limb`, …).
    Ident,
    /// A lifetime or loop label (`'a`, `'outer`), *without* the quote.
    Lifetime,
    /// A literal: string/raw-string/char contents are dropped (the token
    /// text is `""` or `''`); numeric literals keep their text.
    Literal,
    /// Punctuation, greedily combined (`<<`, `::`, `->`, `+=`, …).
    Punct,
}

/// One token with its source line (1-based).
#[derive(Debug, Clone)]
pub struct Token {
    /// What kind of token this is.
    pub kind: TokenKind,
    /// The token text (empty contents for string/char literals).
    pub text: String,
    /// 1-based line on which the token starts.
    pub line: usize,
}

impl Token {
    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// Whether this token is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokenKind::Punct && self.text == s
    }
}

/// Everything one lexer pass produces.
#[derive(Debug)]
pub struct LexOutput {
    /// The token stream (comments and whitespace removed).
    pub tokens: Vec<Token>,
    /// Line text with comments and literal contents blanked.
    pub code_lines: Vec<String>,
    /// Comment text per line (everything inside a comment on that line).
    pub comment_lines: Vec<String>,
}

/// Multi-character punctuation, longest first so combination is greedy.
const PUNCT3: &[&str] = &["<<=", ">>=", "..=", "..."];
const PUNCT2: &[&str] = &[
    "<<", ">>", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=",
    "%=", "^=", "|=", "&=", "..",
];

struct Lexer<'a> {
    chars: Vec<char>,
    src: &'a str,
    pos: usize,
    line: usize,
    tokens: Vec<Token>,
    code_lines: Vec<String>,
    comment_lines: Vec<String>,
    code_buf: String,
    comment_buf: String,
}

/// Lexes `text` into tokens plus the per-line code/comment masks.
pub fn lex(text: &str) -> LexOutput {
    let mut lx = Lexer {
        chars: text.chars().collect(),
        src: text,
        pos: 0,
        line: 1,
        tokens: Vec::new(),
        code_lines: Vec::new(),
        comment_lines: Vec::new(),
        code_buf: String::new(),
        comment_buf: String::new(),
    };
    lx.run();
    // `str::lines` semantics: a trailing newline does not open one more
    // (empty) line, but a file not ending in a newline still flushed its
    // last line inside `run`.
    LexOutput {
        tokens: lx.tokens,
        code_lines: lx.code_lines,
        comment_lines: lx.comment_lines,
    }
}

impl Lexer<'_> {
    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    /// Consumes one char into the code mask verbatim.
    fn take_code(&mut self) {
        if let Some(c) = self.peek(0) {
            self.advance(c, MaskSink::Code, false);
        }
    }

    /// Consumes one char, blanking it in the code mask.
    fn take_blank(&mut self) {
        if let Some(c) = self.peek(0) {
            self.advance(c, MaskSink::Code, true);
        }
    }

    /// Consumes one char into the comment mask (code mask gets a blank).
    fn take_comment(&mut self) {
        if let Some(c) = self.peek(0) {
            self.advance(c, MaskSink::Comment, true);
        }
    }

    fn advance(&mut self, c: char, sink: MaskSink, blank: bool) {
        self.pos += 1;
        if c == '\n' {
            self.flush_line();
            return;
        }
        match sink {
            MaskSink::Code => self.code_buf.push(if blank { ' ' } else { c }),
            MaskSink::Comment => {
                self.comment_buf.push(c);
                self.code_buf.push(' ');
            }
        }
    }

    fn flush_line(&mut self) {
        self.code_lines.push(std::mem::take(&mut self.code_buf));
        self.comment_lines.push(std::mem::take(&mut self.comment_buf));
        self.line += 1;
    }

    fn push_token(&mut self, kind: TokenKind, text: String, line: usize) {
        self.tokens.push(Token { kind, text, line });
    }

    fn run(&mut self) {
        while let Some(c) = self.peek(0) {
            match c {
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string_literal(),
                '\'' => self.quote(),
                c if c.is_ascii_digit() => self.number(),
                c if c.is_alphabetic() || c == '_' => self.word(),
                c if c.is_whitespace() => self.take_code(),
                _ => self.punct(),
            }
        }
        if !self.code_buf.is_empty()
            || !self.comment_buf.is_empty()
            || !self.src.is_empty() && !self.src.ends_with('\n')
        {
            self.flush_line();
        }
    }

    fn line_comment(&mut self) {
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                self.take_code(); // flushes the line
                return;
            }
            self.take_comment();
        }
    }

    fn block_comment(&mut self) {
        let mut depth = 0u32;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                self.take_comment();
                self.take_comment();
                continue;
            }
            if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                self.take_comment();
                self.take_comment();
                if depth == 0 {
                    return;
                }
                continue;
            }
            self.take_comment();
        }
    }

    /// A plain (escapable, possibly multi-line) string literal.
    fn string_literal(&mut self) {
        let line = self.line;
        self.take_code(); // opening quote
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.take_blank();
                    self.take_blank();
                }
                '"' => {
                    self.take_code();
                    self.push_token(TokenKind::Literal, "\"\"".to_string(), line);
                    return;
                }
                _ => self.take_blank(),
            }
        }
        self.push_token(TokenKind::Literal, "\"\"".to_string(), line);
    }

    /// A raw string literal; `hashes` were already counted (not consumed).
    fn raw_string(&mut self, hashes: usize) {
        let line = self.line;
        for _ in 0..hashes + 1 {
            self.take_code(); // the `#`s and the opening quote
        }
        while let Some(c) = self.peek(0) {
            if c == '"' {
                let mut seen = 0usize;
                while seen < hashes && self.peek(1 + seen) == Some('#') {
                    seen += 1;
                }
                if seen == hashes {
                    for _ in 0..hashes + 1 {
                        self.take_code();
                    }
                    self.push_token(TokenKind::Literal, "\"\"".to_string(), line);
                    return;
                }
            }
            self.take_blank();
        }
        self.push_token(TokenKind::Literal, "\"\"".to_string(), line);
    }

    /// `'`: a lifetime/label (`'a`, `'outer`) or a char literal (`'x'`,
    /// `'\n'`). Disambiguated by full lookahead: an identifier run after
    /// the quote that is *not* closed by another quote is a lifetime.
    fn quote(&mut self) {
        let mut len = 0usize;
        while self
            .peek(1 + len)
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
        {
            len += 1;
        }
        let is_lifetime = len > 0
            && self.peek(1 + len) != Some('\'')
            && !self.peek(1).is_some_and(|c| c.is_ascii_digit());
        if is_lifetime {
            let line = self.line;
            let name: String = self.chars[self.pos + 1..self.pos + 1 + len].iter().collect();
            for _ in 0..len + 1 {
                self.take_code();
            }
            self.push_token(TokenKind::Lifetime, name, line);
            return;
        }
        // Char literal: quote, contents (escapes), quote.
        let line = self.line;
        self.take_code();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    self.take_blank();
                    self.take_blank();
                }
                '\'' => {
                    self.take_code();
                    break;
                }
                '\n' => break, // unterminated; never cross a line
                _ => self.take_blank(),
            }
        }
        self.push_token(TokenKind::Literal, "''".to_string(), line);
    }

    /// A numeric literal (digits, suffixes, underscores; `1.5e3` splits
    /// at the dot, which is fine — no rule needs float structure).
    fn number(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.take_code();
            } else {
                break;
            }
        }
        self.push_token(TokenKind::Literal, text, line);
    }

    /// An identifier/keyword — or the prefix of a raw string (`r"`,
    /// `r#"`, `br"`) / byte string (`b"`) / byte char (`b'`) / raw
    /// identifier (`r#ident`).
    fn word(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c.is_alphanumeric() || c == '_' {
                text.push(c);
                self.take_code();
            } else {
                break;
            }
        }
        if text == "r" || text == "b" || text == "br" || text == "rb" {
            let mut hashes = 0usize;
            while self.peek(hashes) == Some('#') {
                hashes += 1;
            }
            if self.peek(hashes) == Some('"') && (text != "b" || hashes == 0) {
                // r"..", r#".."#, br".."; `b` takes no hashes.
                self.raw_string(hashes);
                return;
            }
            if text == "b" && hashes == 0 && self.peek(0) == Some('\'') {
                self.quote(); // byte char literal b'x'
                return;
            }
            if text == "r" && hashes == 1 && self.peek(1).is_some_and(is_ident_start) {
                // Raw identifier r#ident: emit the identifier itself.
                self.take_code(); // '#'
                let mut raw = String::new();
                while let Some(c) = self.peek(0) {
                    if c.is_alphanumeric() || c == '_' {
                        raw.push(c);
                        self.take_code();
                    } else {
                        break;
                    }
                }
                self.push_token(TokenKind::Ident, raw, line);
                return;
            }
        }
        self.push_token(TokenKind::Ident, text, line);
    }

    fn punct(&mut self) {
        let line = self.line;
        let at = |k: usize| self.peek(k);
        let matches3 = PUNCT3
            .iter()
            .find(|p| {
                p.chars()
                    .enumerate()
                    .all(|(k, pc)| at(k) == Some(pc))
            })
            .copied();
        if let Some(p) = matches3 {
            for _ in 0..p.len() {
                self.take_code();
            }
            self.push_token(TokenKind::Punct, p.to_string(), line);
            return;
        }
        let matches2 = PUNCT2
            .iter()
            .find(|p| {
                p.chars()
                    .enumerate()
                    .all(|(k, pc)| at(k) == Some(pc))
            })
            .copied();
        if let Some(p) = matches2 {
            for _ in 0..p.len() {
                self.take_code();
            }
            self.push_token(TokenKind::Punct, p.to_string(), line);
            return;
        }
        if let Some(c) = self.peek(0) {
            self.take_code();
            self.push_token(TokenKind::Punct, c.to_string(), line);
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

#[derive(Clone, Copy)]
enum MaskSink {
    Code,
    Comment,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn raw_strings_hide_contents_and_close_on_matching_hashes() {
        let out = lex("let s = r#\"as u32 \" inner\"#; let t = 1;\n");
        assert!(!out.code_lines[0].contains("as u32"));
        assert!(out.code_lines[0].contains("let t = 1;"));
        assert!(idents("let s = r#\"panic!\"#;").iter().all(|i| i != "panic"));
    }

    #[test]
    fn raw_strings_span_lines() {
        // Two hashes: the inner `"#` does NOT close the string; `"##` does.
        let out = lex("let s = r##\"line one\nline two \"# still inside\nend\"##;\nlet x = 2;\n");
        assert!(!out.code_lines[1].contains("line two"));
        assert!(!out.code_lines[1].contains("still inside"));
        assert!(!out.code_lines[2].contains("end"));
        assert!(out.code_lines[3].contains("let x = 2;"));
    }

    #[test]
    fn plain_strings_span_lines() {
        let out = lex("let s = \"first\nsecond panic!()\";\nlet y = 3;\n");
        assert!(!out.code_lines[1].contains("panic"));
        assert!(out.code_lines[1].ends_with(';'));
        assert!(out.code_lines[2].contains("let y = 3;"));
    }

    #[test]
    fn nested_block_comments_balance() {
        let out = lex("a /* one /* two */ still comment */ b\n");
        assert!(out.code_lines[0].contains('a'));
        assert!(out.code_lines[0].contains('b'));
        assert!(!out.code_lines[0].contains("still"));
        assert!(out.comment_lines[0].contains("still comment"));
    }

    #[test]
    fn nested_block_comments_span_lines() {
        let out = lex("x /* a\n/* b */\nc */ y\n");
        assert!(!out.code_lines[1].contains('b'));
        assert!(out.code_lines[2].contains('y'));
        assert!(!out.code_lines[2].contains('c'));
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = lex("fn f<'a>(x: &'a str) -> char { let c: char = 'x'; 'b' }").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["a", "a"]);
        let chars = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Literal && t.text == "''")
            .count();
        assert_eq!(chars, 2);
    }

    #[test]
    fn labels_and_static_lifetime_are_lifetimes() {
        let toks = lex("'outer: loop { break 'outer; } let s: &'static str = \"\";").tokens;
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(lifetimes, vec!["outer", "outer", "static"]);
    }

    #[test]
    fn escaped_quotes_in_char_and_string() {
        let out = lex("let q = '\\''; let s = \"he said \\\"panic!\\\" loudly\";\n");
        assert!(!out.code_lines[0].contains("panic"));
        let toks = lex("let q = '\\''; let x = 1;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("x")), "lexing continues after escaped char");
    }

    #[test]
    fn shifts_and_paths_combine_greedily() {
        let toks = lex("a << b; c >> d; e::f; g <<= h;").tokens;
        let puncts: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Punct && t.text.len() > 1)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(puncts, vec!["<<", ">>", "::", "<<="]);
    }

    #[test]
    fn tokens_carry_line_numbers() {
        let toks = lex("fn a() {}\n\nfn b() {}\n").tokens;
        let b_line = toks
            .iter()
            .find(|t| t.is_ident("b"))
            .map(|t| t.line);
        assert_eq!(b_line, Some(3));
    }

    #[test]
    fn byte_strings_and_raw_idents() {
        let out = lex("let b = b\"panic!\"; let r = r#match; let br = br\"as u32\";\n");
        assert!(!out.code_lines[0].contains("panic"));
        assert!(!out.code_lines[0].contains("as u32"));
        let toks = lex("let x = r#match;").tokens;
        assert!(toks.iter().any(|t| t.is_ident("match")), "raw ident keeps its name");
    }

    #[test]
    fn line_comment_text_is_recoverable() {
        let out = lex("let x = 1; // apc-lint: allow(L3) -- reason\n");
        assert!(out.comment_lines[0].contains("apc-lint: allow(L3) -- reason"));
        assert!(!out.code_lines[0].contains("apc-lint"));
    }

    #[test]
    fn file_without_trailing_newline_keeps_last_line() {
        let out = lex("let x = 1;");
        assert_eq!(out.code_lines.len(), 1);
        assert!(out.code_lines[0].contains("let x = 1;"));
    }
}
