//! A small comment/string/attribute-aware Rust lexer.
//!
//! The lints must never fire inside string literals, comments (doc
//! comments included) or `#[cfg(test)]` / `#[test]` regions. This module
//! splits a source file into per-line *code* text (strings and chars
//! blanked, comments stripped) and per-line *comment* text (where the
//! `ordering:` annotations live), then
//! marks the line ranges belonging to test-only items.
//!
//! It is a lexer, not a parser: it understands exactly as much Rust
//! surface syntax as the lints need (nested block comments, raw strings,
//! char-vs-lifetime disambiguation, attribute brackets, brace depth) and
//! nothing more.

/// One source line, split into its lint-relevant channels.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// Code text with comments removed and string/char interiors
    /// blanked by spaces (delimiters kept, so token shapes survive).
    pub code: String,
    /// Concatenated comment text on this line, `//`/`/* */`/doc alike.
    pub comment: String,
    /// True when the line is inside (or is the attribute line of) a
    /// `#[cfg(test)]` / `#[test]` / `#[bench]` item.
    pub in_test: bool,
}

impl Line {
    /// True when the line carries no code tokens (blank or comment-only).
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty()
    }
}

/// A lexed source file.
#[derive(Debug)]
pub struct LexedFile {
    /// Lines, 0-indexed (diagnostics add 1).
    pub lines: Vec<Line>,
}

/// A code token: an identifier/number word, or one punctuation char.
#[derive(Debug, Clone)]
pub struct Tok {
    /// The token text (identifier, number, or a single punctuation char).
    pub text: String,
    /// 1-based source line the token starts on.
    pub line: usize,
}

impl Tok {
    /// True for identifier/number words, false for punctuation.
    pub(crate) fn is_word(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Lexes `source` into per-line code and comment channels and marks
/// test-only regions.
pub fn lex(source: &str) -> LexedFile {
    let mut lines: Vec<Line> = Vec::new();
    let mut code = String::new();
    let mut comment = String::new();
    let mut mode = Mode::Code;
    let chars: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A line comment ends at the newline; everything else
            // (block comments, raw strings) carries across.
            if mode == Mode::LineComment {
                mode = Mode::Code;
            }
            lines.push(Line {
                code: std::mem::take(&mut code),
                comment: std::mem::take(&mut comment),
                in_test: false,
            });
            i += 1;
            continue;
        }
        let next = chars.get(i + 1).copied();
        match mode {
            Mode::Code => match c {
                '/' if next == Some('/') => {
                    mode = Mode::LineComment;
                    i += 2;
                }
                '/' if next == Some('*') => {
                    mode = Mode::BlockComment(1);
                    i += 2;
                }
                '"' => {
                    code.push('"');
                    mode = Mode::Str;
                    i += 1;
                }
                'r' | 'b' => {
                    // r"..", r#".."#, b"..", br#".."# — only when the
                    // letter starts a token (previous char is not part
                    // of an identifier).
                    let prev_ident = i
                        .checked_sub(1)
                        .map(|p| chars[p].is_alphanumeric() || chars[p] == '_')
                        .unwrap_or(false);
                    let mut j = i + 1;
                    if c == 'b' && chars.get(j) == Some(&'r') {
                        j += 1;
                    }
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if !prev_ident && chars.get(j) == Some(&'"') && (c == 'r' || j > i + 1) {
                        code.push('"');
                        mode = Mode::RawStr(hashes);
                        i = j + 1;
                    } else if !prev_ident && c == 'b' && chars.get(i + 1) == Some(&'\'') {
                        code.push('\'');
                        mode = Mode::Char;
                        i += 2;
                    } else {
                        code.push(c);
                        i += 1;
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: 'x' or an escape is a
                    // char; anything else ('a, '_, 'static) is a
                    // lifetime and the quote passes through as code.
                    let is_char = match next {
                        Some('\\') => true,
                        Some(n) => chars.get(i + 2) == Some(&'\'') && n != '\'',
                        None => false,
                    };
                    if is_char {
                        code.push('\'');
                        mode = Mode::Char;
                    } else {
                        code.push('\'');
                    }
                    i += 1;
                }
                _ => {
                    code.push(c);
                    i += 1;
                }
            },
            Mode::LineComment => {
                comment.push(c);
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if c == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    comment.push(c);
                    i += 1;
                }
            }
            Mode::Str => {
                if c == '\\' {
                    code.push(' ');
                    if next == Some('\n') {
                        // Line continuation: leave the newline for the
                        // top-of-loop handler so line numbers stay true.
                        i += 1;
                    } else {
                        if next.is_some() {
                            code.push(' ');
                        }
                        i += 2;
                    }
                } else if c == '"' {
                    code.push('"');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut seen = 0u32;
                    while seen < hashes && chars.get(j) == Some(&'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        code.push('"');
                        mode = Mode::Code;
                        i = j;
                    } else {
                        code.push(' ');
                        i += 1;
                    }
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
            Mode::Char => {
                if c == '\\' {
                    code.push(' ');
                    if next == Some('\n') {
                        i += 1;
                    } else {
                        if next.is_some() {
                            code.push(' ');
                        }
                        i += 2;
                    }
                } else if c == '\'' {
                    code.push('\'');
                    mode = Mode::Code;
                    i += 1;
                } else {
                    code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !code.is_empty() || !comment.is_empty() {
        lines.push(Line {
            code,
            comment,
            in_test: false,
        });
    }
    let mut file = LexedFile { lines };
    mark_test_regions(&mut file);
    file
}

/// Tokenizes the code channel of a lexed file: identifier/number words
/// plus single punctuation chars, each tagged with its 1-based line.
pub fn tokens(file: &LexedFile) -> Vec<Tok> {
    let mut toks = Vec::new();
    for (idx, line) in file.lines.iter().enumerate() {
        let mut word = String::new();
        for c in line.code.chars() {
            if c.is_alphanumeric() || c == '_' {
                word.push(c);
            } else {
                if !word.is_empty() {
                    toks.push(Tok {
                        text: std::mem::take(&mut word),
                        line: idx + 1,
                    });
                }
                if !c.is_whitespace() {
                    toks.push(Tok {
                        text: c.to_string(),
                        line: idx + 1,
                    });
                }
            }
        }
        if !word.is_empty() {
            toks.push(Tok {
                text: word,
                line: idx + 1,
            });
        }
    }
    toks
}

/// Marks lines belonging to `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items (attribute line through the item's closing brace, or through
/// the `;` of a braceless item).
fn mark_test_regions(file: &mut LexedFile) {
    let toks = tokens(file);
    let mut i = 0usize;
    let mut regions: Vec<(usize, usize)> = Vec::new();
    while i < toks.len() {
        if toks[i].text != "#" {
            i += 1;
            continue;
        }
        // Outer or inner attribute: #[...] or #![...].
        let mut j = i + 1;
        if j < toks.len() && toks[j].text == "!" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text != "[" {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        let mut depth = 0i32;
        let mut attr_words: Vec<&str> = Vec::new();
        while j < toks.len() {
            match toks[j].text.as_str() {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {
                    if toks[j].is_word() {
                        attr_words.push(&toks[j].text);
                    }
                }
            }
            j += 1;
        }
        let is_test_attr = match attr_words.first().copied() {
            Some("test") | Some("bench") => true,
            // `cfg_attr` only sets attributes: its item is compiled
            // either way. A `cfg` that names `not` may hold outside tests.
            Some("cfg") => attr_words.contains(&"test") && !attr_words.contains(&"not"),
            _ => false,
        };
        if !is_test_attr {
            i = j + 1;
            continue;
        }
        // Scan forward past further attributes to the item; the region
        // ends at the matching `}` of the item's first brace, or at a
        // top-level `;` before any brace.
        let mut k = j + 1;
        let mut brace: i32 = 0;
        let mut end_line = toks.get(j).map(|t| t.line).unwrap_or(attr_start_line);
        while k < toks.len() {
            match toks[k].text.as_str() {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        end_line = toks[k].line;
                        break;
                    }
                }
                ";" if brace == 0 => {
                    end_line = toks[k].line;
                    break;
                }
                _ => {}
            }
            end_line = toks[k].line;
            k += 1;
        }
        regions.push((attr_start_line, end_line));
        i = k + 1;
    }
    for (start, end) in regions {
        for line in start..=end {
            if let Some(l) = file.lines.get_mut(line - 1) {
                l.in_test = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_separated() {
        let f = lex("let a = \"Vec::new()\"; // ordering: fine\nlet b = 1; /* x */");
        assert!(!f.lines[0].code.contains("Vec"));
        assert!(f.lines[0].comment.contains("ordering: fine"));
        assert!(f.lines[1].code.contains("let b"));
        assert!(f.lines[1].comment.contains('x'));
    }

    #[test]
    fn raw_strings_and_chars() {
        let f = lex("let a = r#\"panic!(\"x\")\"#; let c = '\\n'; let l: &'static str = \"\";");
        assert!(!f.lines[0].code.contains("panic"));
        assert!(f.lines[0].code.contains("static"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn x() {}\n}\nfn after() {}\n";
        let f = lex(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test && f.lines[2].in_test && f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn cfg_attr_and_cfg_not_test_are_live() {
        let src =
            "#[cfg_attr(not(test), forbid(x))]\npub mod m;\n#[cfg(not(test))]\nfn live() {}\n";
        let f = lex(src);
        assert!(f.lines.iter().all(|l| !l.in_test));
    }

    #[test]
    fn test_attr_fn_region() {
        let src = "#[test]\nfn t() {\n    boom();\n}\nfn live() {}\n";
        let f = lex(src);
        assert!(f.lines[0].in_test && f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn string_line_continuation_keeps_line_numbers() {
        let src = "let a = \"first \\\n second\";\nlet b = 1;\n";
        let f = lex(src);
        assert_eq!(f.lines.len(), 3);
        assert!(f.lines[2].code.contains("let b"));
    }

    #[test]
    fn nested_block_comments() {
        let f = lex("/* a /* b */ still */ fn x() {}");
        assert!(f.lines[0].code.contains("fn x"));
        assert!(f.lines[0].comment.contains('b'));
    }
}
