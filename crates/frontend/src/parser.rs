//! The `.litmus` text parser.
//!
//! The format is herd-style: a header naming the test, an optional quoted
//! description, an optional initial-memory block, the per-thread instruction
//! columns, an optional `locations` clause and an optional final-state
//! condition. See the crate docs for the full grammar. Every error carries a
//! 1-based line/column position.
//!
//! ```text
//! GAM mp
//! "classical message passing with no fences"
//! { a = 0; b = 0; }
//! P1       | P2          ;
//! St [a] 1 | r1 = Ld [b] ;
//! St [b] 1 | r2 = Ld [a] ;
//! locations (P2:r1; P2:r2)
//! exists (P2:r1 = 1 /\ P2:r2 = 0)
//! ```

use std::collections::BTreeMap;

use gam_isa::litmus::{LitmusTest, Observation};
use gam_isa::{
    Addr, AluOp, BranchCond, FenceKind, Instruction, IsaError, Loc, Operand, ProcId, Program, Reg,
    ThreadProgram, Value,
};

use crate::diag::{ParseError, Span};
use crate::lexer::{lex, Tok, Token};

/// Reserved words that cannot be used as location or label names.
const KEYWORDS: [&str; 17] = [
    "St",
    "Ld",
    "beq",
    "bne",
    "add",
    "sub",
    "and",
    "or",
    "xor",
    "mov",
    "FenceLL",
    "FenceLS",
    "FenceSL",
    "FenceSS",
    "locations",
    "exists",
    "forbidden",
];

/// Parses one `.litmus` document into a validated [`LitmusTest`].
///
/// # Errors
///
/// Returns a [`ParseError`] with a 1-based line/column position on any
/// lexical, syntactic or semantic problem: malformed instructions, rows with
/// the wrong number of columns, duplicate labels or duplicated initial
/// locations, branches to undefined labels, observations of processors the
/// program does not have, registers that are never written, or observations
/// constrained twice in the condition.
pub fn parse_litmus(text: &str) -> Result<LitmusTest, ParseError> {
    let _phase = gam_obs::phase("parse");
    // ---- line-oriented phase: header and description -----------------------
    let mut lines = Lines { text, offset: 0, taken: 0 };
    lines.skip_blank();
    let Some(header) = lines.take() else {
        return Err(ParseError::new(Span::new(1, 1), "empty litmus file"));
    };
    let header = strip_comment(header).trim();
    let name = match header.split_once(char::is_whitespace) {
        Some((_arch, rest)) if !rest.trim().is_empty() => rest.trim().to_string(),
        _ => {
            return Err(ParseError::new(
                Span::new(lines.taken, 1),
                "header must be `<arch> <test-name>` (e.g. `GAM dekker`)",
            ))
        }
    };

    lines.skip_blank();
    let mut description = String::new();
    if let Some(line) = lines.peek().filter(|line| line.trim_start().starts_with('"')) {
        description = parse_description(line, lines.taken + 1)?;
        lines.take();
    }

    // ---- token phase: everything below -------------------------------------
    let tokens = lex(lines.rest(), lines.taken + 1)?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.document(name, description)
}

/// A cursor over the `\n`-separated lines of a text, for the line-oriented
/// header and description.
struct Lines<'a> {
    text: &'a str,
    /// Byte offset of the first line not taken; past the end once the last
    /// line is taken.
    offset: usize,
    /// Lines taken so far (the 1-based number of the last one taken).
    taken: usize,
}

impl<'a> Lines<'a> {
    /// The next line, without taking it.
    fn peek(&self) -> Option<&'a str> {
        let rest = self.text.get(self.offset..)?;
        Some(rest.split('\n').next().unwrap_or(rest))
    }

    fn take(&mut self) -> Option<&'a str> {
        let line = self.peek()?;
        self.offset += line.len() + 1;
        self.taken += 1;
        Some(line)
    }

    /// Takes every line that is empty but for whitespace and a comment.
    fn skip_blank(&mut self) {
        while self.peek().is_some_and(|line| strip_comment(line).trim().is_empty()) {
            self.take();
        }
    }

    /// The text from the first line not taken on.
    fn rest(&self) -> &'a str {
        self.text.get(self.offset..).unwrap_or("")
    }
}

/// Cuts a line at the first `//`.
fn strip_comment(line: &str) -> &str {
    line.find("//").map_or(line, |at| &line[..at])
}

/// Parses the quoted description line (raw, because the quotes may contain
/// `//`). Supports `\"` and `\\` escapes; the string must close on the same
/// line, and only whitespace or a comment may follow it.
fn parse_description(line: &str, line_number: usize) -> Result<String, ParseError> {
    let mut out = String::new();
    let mut chars = line.chars().enumerate().peekable();
    let mut col = 0usize;
    // Skip leading whitespace and the opening quote (the caller checked it).
    for (i, c) in chars.by_ref() {
        col = i + 1;
        if c == '"' {
            break;
        }
    }
    loop {
        match chars.next() {
            None => {
                return Err(ParseError::new(
                    Span::new(line_number, col),
                    "unterminated description string",
                ))
            }
            Some((i, '"')) => {
                let rest: String = chars.map(|(_, c)| c).collect();
                let rest = rest.trim_start();
                if !rest.is_empty() && !rest.starts_with("//") {
                    return Err(ParseError::new(
                        Span::new(line_number, i + 2),
                        "unexpected text after the description string",
                    ));
                }
                return Ok(out);
            }
            Some((i, '\\')) => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                _ => {
                    return Err(ParseError::new(
                        Span::new(line_number, i + 1),
                        "unknown escape in description (only \\\" and \\\\ are supported)",
                    ))
                }
            },
            Some((_, c)) => out.push(c),
        }
    }
}

/// How an identifier reads in instruction/observation positions.
enum Word {
    Reg(Reg),
    Proc(ProcId),
    Plain,
}

/// Classifies an identifier as a register (`r` + digits), a processor
/// (`P` + digits, 1-based) or a plain name.
fn classify(name: &str, span: Span) -> Result<Word, ParseError> {
    if let Some(rest) = name.strip_prefix('r') {
        if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
            let idx = rest.parse::<u32>().map_err(|_| {
                ParseError::new(span, format!("register index in `{name}` is too large"))
            })?;
            return Ok(Word::Reg(Reg::new(idx)));
        }
    }
    if let Some(rest) = name.strip_prefix('P') {
        if !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()) {
            let number = rest.parse::<usize>().map_err(|_| {
                ParseError::new(span, format!("processor number in `{name}` is too large"))
            })?;
            if number == 0 {
                return Err(ParseError::new(span, "processors are numbered from P1"));
            }
            return Ok(Word::Proc(ProcId::new(number - 1)));
        }
    }
    Ok(Word::Plain)
}

/// Checks that `name` can serve as a location or label name.
fn plain_name(name: &str, span: Span, what: &str) -> Result<(), ParseError> {
    if KEYWORDS.contains(&name) {
        return Err(ParseError::new(span, format!("`{name}` is a reserved word, not a {what}")));
    }
    match classify(name, span)? {
        Word::Plain => Ok(()),
        Word::Reg(_) => {
            Err(ParseError::new(span, format!("register `{name}` cannot be used as a {what}")))
        }
        Word::Proc(_) => {
            Err(ParseError::new(span, format!("processor `{name}` cannot be used as a {what}")))
        }
    }
}

/// Everything parsed out of one thread column cell.
#[derive(Default)]
struct Cell<'a> {
    labels: Vec<(&'a str, Span)>,
    instr: Option<Instruction>,
    /// Branch target referenced by the instruction, for late resolution.
    branch_target: Option<(&'a str, Span)>,
}

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos]
    }

    /// The token after the next one (saturating at `Eof`).
    fn peek2(&self) -> &Token<'a> {
        self.tokens.get(self.pos + 1).unwrap_or_else(|| self.tokens.last().expect("eof token"))
    }

    fn advance(&mut self) -> Token<'a> {
        let token = self.tokens[self.pos];
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        token
    }

    fn expect(&mut self, tok: &Tok<'_>, context: &str) -> Result<Span, ParseError> {
        if &self.peek().tok == tok {
            Ok(self.advance().span)
        } else {
            let found = self.peek();
            Err(ParseError::new(
                found.span,
                format!("expected {} {context}, found {}", tok.describe(), found.tok.describe()),
            ))
        }
    }

    fn ident(&mut self, context: &str) -> Result<(&'a str, Span), ParseError> {
        match self.peek().tok {
            Tok::Ident(name) => {
                let span = self.advance().span;
                Ok((name, span))
            }
            other => Err(ParseError::new(
                self.peek().span,
                format!("expected {context}, found {}", other.describe()),
            )),
        }
    }

    /// Is the next token the start of the `locations` / condition trailer?
    fn at_trailer(&self) -> bool {
        match &self.peek().tok {
            Tok::Eof => true,
            Tok::Ident(name) => matches!(*name, "locations" | "exists" | "forbidden"),
            _ => false,
        }
    }

    // ---- document ----------------------------------------------------------

    fn document(&mut self, name: String, description: String) -> Result<LitmusTest, ParseError> {
        let init = if self.peek().tok == Tok::LBrace { self.init_block()? } else { Vec::new() };
        let (threads, branch_refs) = self.thread_columns()?;

        for &(thread_idx, target, span) in &branch_refs {
            if !threads[thread_idx].labels().contains_key(target) {
                return Err(ParseError::new(
                    span,
                    format!(
                        "branch target `{target}` is not defined in thread P{}",
                        thread_idx + 1
                    ),
                ));
            }
        }
        let num_threads = threads.len();
        let program = Program::try_new(threads)
            .map_err(|err| ParseError::new(Span::new(1, 1), format!("invalid program: {err}")))?;

        let mut observed: Vec<(Observation, Span)> = Vec::new();
        if self.peek().tok == Tok::Ident("locations") {
            self.advance();
            self.expect(&Tok::LParen, "after `locations`")?;
            if self.peek().tok != Tok::RParen {
                loop {
                    let (obs, span) = self.observation(num_threads)?;
                    if observed.iter().any(|(seen, _)| *seen == obs) {
                        return Err(ParseError::new(span, "duplicate observation"));
                    }
                    observed.push((obs, span));
                    if self.peek().tok == Tok::Semi {
                        self.advance();
                    } else {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen, "to close the `locations` clause")?;
        }

        let mut condition: Vec<(Observation, Value, Span)> = Vec::new();
        if let Tok::Ident(word) = self.peek().tok {
            if word == "exists" || word == "forbidden" {
                self.advance();
                self.expect(&Tok::LParen, "after the condition keyword")?;
                if self.peek().tok != Tok::RParen {
                    loop {
                        let (obs, span) = self.observation(num_threads)?;
                        self.expect(&Tok::Eq, "in the condition term")?;
                        let value = self.value()?;
                        if condition.iter().any(|(seen, _, _)| *seen == obs) {
                            return Err(ParseError::new(
                                span,
                                "observation constrained twice in the condition",
                            ));
                        }
                        condition.push((obs, value, span));
                        if self.peek().tok == Tok::And {
                            self.advance();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RParen, "to close the condition")?;
            }
        }

        if self.peek().tok != Tok::Eof {
            let found = self.peek();
            return Err(ParseError::new(
                found.span,
                format!("unexpected {} after the end of the test", found.tok.describe()),
            ));
        }

        // ---- assembly and semantic validation ------------------------------
        let mut builder = LitmusTest::builder(name, program).description(description);
        let mut seen_init: BTreeMap<u64, Span> = BTreeMap::new();
        for (addr, value, written, span) in init {
            if seen_init.insert(addr, span).is_some() {
                return Err(ParseError::new(
                    span,
                    format!("location {} initialised twice", written.describe()),
                ));
            }
            builder = builder.init(Loc::from_address(addr), value);
        }
        for &(obs, _) in &observed {
            builder = builder.observe(obs);
        }
        for &(obs, value, _) in &condition {
            builder = builder.expect(obs, value);
        }
        builder.try_build().map_err(|err| match err {
            IsaError::UnwrittenObservedRegister { proc, reg } => {
                // Point at the observation's first mention.
                let obs = Observation::Register(ProcId::new(proc), Reg::new(reg));
                let span = observed
                    .iter()
                    .find(|(seen, _)| *seen == obs)
                    .map(|&(_, span)| span)
                    .or_else(|| condition.iter().find(|(seen, ..)| *seen == obs).map(|c| c.2))
                    .unwrap_or(Span::new(1, 1));
                ParseError::new(
                    span,
                    format!("observed register r{reg} is never written by thread P{}", proc + 1),
                )
            }
            other => ParseError::new(Span::new(1, 1), format!("invalid litmus test: {other}")),
        })
    }

    // ---- init block --------------------------------------------------------

    /// `{ a = 1; 0x10 = 2; }` — returns `(address, value, location token,
    /// span)` per entry in file order.
    #[allow(clippy::type_complexity)]
    fn init_block(&mut self) -> Result<Vec<(u64, Value, Tok<'a>, Span)>, ParseError> {
        self.expect(&Tok::LBrace, "to open the initial-state block")?;
        let mut entries = Vec::new();
        while self.peek().tok != Tok::RBrace {
            let Token { tok: written, span } = *self.peek();
            let addr = match written {
                Tok::Ident(name) => {
                    self.advance();
                    plain_name(name, span, "location name")?;
                    Loc::new(name).address()
                }
                Tok::Num(addr) => {
                    self.advance();
                    addr
                }
                other => {
                    return Err(ParseError::new(
                        self.peek().span,
                        format!(
                            "expected a location or `}}` in the initial-state block, found {}",
                            other.describe()
                        ),
                    ))
                }
            };
            self.expect(&Tok::Eq, "in the initial-state entry")?;
            let value = self.value()?;
            self.expect(&Tok::Semi, "after the initial-state entry")?;
            entries.push((addr, value, written, span));
        }
        self.advance(); // the `}`
        Ok(entries)
    }

    // ---- thread columns ----------------------------------------------------

    /// Parses the `P1 | P2 ;` header row and every instruction row, returning
    /// the built threads plus every branch reference for late resolution.
    #[allow(clippy::type_complexity)]
    fn thread_columns(
        &mut self,
    ) -> Result<(Vec<ThreadProgram>, Vec<(usize, &'a str, Span)>), ParseError> {
        // Header row.
        let mut num_threads = 0usize;
        loop {
            let (word, span) = self.ident("a thread column header (`P1`, `P2`, …)")?;
            match classify(word, span)? {
                Word::Proc(proc) if proc.index() == num_threads => num_threads += 1,
                _ => {
                    return Err(ParseError::new(
                        span,
                        format!(
                            "thread columns must be named P1, P2, … in order (found `{word}`, \
                             expected `P{}`)",
                            num_threads + 1
                        ),
                    ))
                }
            }
            match self.peek().tok {
                Tok::Pipe => {
                    self.advance();
                }
                Tok::Semi => {
                    self.advance();
                    break;
                }
                _ => {
                    let found = self.peek();
                    return Err(ParseError::new(
                        found.span,
                        format!(
                            "expected `|` or `;` in the thread header row, found {}",
                            found.tok.describe()
                        ),
                    ));
                }
            }
        }

        let mut builders: Vec<_> =
            (0..num_threads).map(|i| ThreadProgram::builder(ProcId::new(i))).collect();
        let mut label_spans: Vec<BTreeMap<&str, Span>> =
            (0..num_threads).map(|_| BTreeMap::new()).collect();
        let mut branch_refs: Vec<(usize, &str, Span)> = Vec::new();

        // Instruction rows, until the trailer or end of input.
        while !self.at_trailer() {
            for column in 0..num_threads {
                let cell = self.cell()?;
                for (label, span) in cell.labels {
                    if label_spans[column].insert(label, span).is_some() {
                        return Err(ParseError::new(
                            span,
                            format!(
                                "label `{label}` defined more than once in thread P{}",
                                column + 1
                            ),
                        ));
                    }
                    builders[column].label(label);
                }
                if let Some(instr) = cell.instr {
                    if let Some((target, span)) = cell.branch_target {
                        branch_refs.push((column, target, span));
                    }
                    builders[column].push(instr);
                }
                let last = column == num_threads - 1;
                match (&self.peek().tok, last) {
                    (Tok::Pipe, false) => {
                        self.advance();
                    }
                    (Tok::Semi, true) => {
                        self.advance();
                    }
                    (Tok::Semi, false) => {
                        return Err(ParseError::new(
                            self.peek().span,
                            format!(
                                "row ends after {} of {num_threads} thread columns",
                                column + 1
                            ),
                        ));
                    }
                    _ => {
                        let found = self.peek();
                        let wanted = if last { "`;` at the end of the row" } else { "`|`" };
                        return Err(ParseError::new(
                            found.span,
                            format!("expected {wanted}, found {}", found.tok.describe()),
                        ));
                    }
                }
            }
        }
        Ok((builders.iter_mut().map(gam_isa::ThreadBuilder::build).collect(), branch_refs))
    }

    /// One cell of an instruction row: zero or more `label:` definitions
    /// followed by at most one instruction.
    fn cell(&mut self) -> Result<Cell<'a>, ParseError> {
        let mut cell = Cell::default();
        // Labels: an identifier directly followed by `:`.
        while matches!(self.peek().tok, Tok::Ident(_)) && self.peek2().tok == Tok::Colon {
            let (label, span) = self.ident("a label")?;
            plain_name(label, span, "label name")?;
            self.advance(); // the `:`
            cell.labels.push((label, span));
        }
        if matches!(self.peek().tok, Tok::Pipe | Tok::Semi | Tok::Eof) {
            return Ok(cell); // empty or labels-only cell
        }
        let (word, span) = match self.peek().tok {
            Tok::Ident(word) => (word, self.peek().span),
            other => {
                return Err(ParseError::new(
                    self.peek().span,
                    format!("expected an instruction or a label, found {}", other.describe()),
                ))
            }
        };
        match word {
            "St" => {
                self.advance();
                let addr = self.address()?;
                let data = self.operand("as the store data")?;
                cell.instr = Some(Instruction::Store { addr, data });
            }
            "FenceLL" | "FenceLS" | "FenceSL" | "FenceSS" => {
                self.advance();
                let kind = match word {
                    "FenceLL" => FenceKind::LL,
                    "FenceLS" => FenceKind::LS,
                    "FenceSL" => FenceKind::SL,
                    _ => FenceKind::SS,
                };
                cell.instr = Some(Instruction::Fence { kind });
            }
            "beq" | "bne" => {
                self.advance();
                let cond = if word == "beq" { BranchCond::Eq } else { BranchCond::Ne };
                let lhs = self.operand("as the first branch operand")?;
                self.expect(&Tok::Comma, "between the branch operands")?;
                let rhs = self.operand("as the second branch operand")?;
                self.expect(&Tok::Arrow, "before the branch target")?;
                let (target, target_span) = self.ident("a branch target label")?;
                plain_name(target, target_span, "label name")?;
                cell.instr = Some(Instruction::Branch {
                    cond,
                    lhs,
                    rhs,
                    target: gam_isa::Label::new(target),
                });
                cell.branch_target = Some((target, target_span));
            }
            _ => match classify(word, span)? {
                Word::Reg(dst) => {
                    self.advance();
                    self.expect(&Tok::Eq, "after the destination register")?;
                    let (op, op_span) = self.ident("`Ld` or an ALU operation")?;
                    match op {
                        "Ld" => {
                            let addr = self.address()?;
                            cell.instr = Some(Instruction::Load { dst, addr });
                        }
                        "add" | "sub" | "and" | "or" | "xor" | "mov" => {
                            let alu = match op {
                                "add" => AluOp::Add,
                                "sub" => AluOp::Sub,
                                "and" => AluOp::And,
                                "or" => AluOp::Or,
                                "xor" => AluOp::Xor,
                                _ => AluOp::Mov,
                            };
                            let lhs = self.operand("as the first ALU operand")?;
                            self.expect(&Tok::Comma, "between the ALU operands")?;
                            let rhs = self.operand("as the second ALU operand")?;
                            cell.instr = Some(Instruction::Alu { dst, op: alu, lhs, rhs });
                        }
                        other => {
                            return Err(ParseError::new(
                                op_span,
                                format!(
                                    "expected `Ld` or an ALU operation (add, sub, and, or, xor, \
                                     mov), found `{other}`"
                                ),
                            ))
                        }
                    }
                }
                _ => {
                    return Err(ParseError::new(
                        span,
                        format!(
                            "expected an instruction (`St`, `FenceXY`, `beq`, `bne` or \
                             `rN = …`), found `{word}`"
                        ),
                    ))
                }
            },
        }
        Ok(cell)
    }

    /// `[base]`, `[base + offset]` — base is a register, location name or
    /// integer address.
    fn address(&mut self) -> Result<Addr, ParseError> {
        self.expect(&Tok::LBracket, "to open the address")?;
        let base = self.operand("as the address base")?;
        let offset = if self.peek().tok == Tok::Plus {
            self.advance();
            match self.peek().tok {
                Tok::Num(n) => {
                    self.advance();
                    n
                }
                _ => {
                    let found = self.peek();
                    return Err(ParseError::new(
                        found.span,
                        format!(
                            "expected an integer offset after `+`, found {}",
                            found.tok.describe()
                        ),
                    ));
                }
            }
        } else {
            0
        };
        self.expect(&Tok::RBracket, "to close the address")?;
        Ok(Addr { base, offset })
    }

    /// A register, location name or integer literal.
    fn operand(&mut self, context: &str) -> Result<Operand, ParseError> {
        match self.peek().tok {
            Tok::Num(n) => {
                self.advance();
                Ok(Operand::imm(n))
            }
            Tok::Ident(name) => {
                let span = self.advance().span;
                match classify(name, span)? {
                    Word::Reg(reg) => Ok(Operand::Reg(reg)),
                    Word::Plain => {
                        plain_name(name, span, "location name")?;
                        Ok(Operand::Imm(Loc::new(name).value()))
                    }
                    Word::Proc(_) => Err(ParseError::new(
                        span,
                        format!("processor `{name}` cannot be used {context}"),
                    )),
                }
            }
            other => Err(ParseError::new(
                self.peek().span,
                format!(
                    "expected a register, location or integer {context}, found {}",
                    other.describe()
                ),
            )),
        }
    }

    /// A value: a location name or an integer literal (no registers).
    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek().tok {
            Tok::Num(n) => {
                self.advance();
                Ok(Value::new(n))
            }
            Tok::Ident(name) => {
                let span = self.advance().span;
                match classify(name, span)? {
                    Word::Plain => {
                        plain_name(name, span, "location name")?;
                        Ok(Loc::new(name).value())
                    }
                    _ => Err(ParseError::new(
                        span,
                        format!("expected a value (integer or location), found `{name}`"),
                    )),
                }
            }
            other => Err(ParseError::new(
                self.peek().span,
                format!("expected a value (integer or location), found {}", other.describe()),
            )),
        }
    }

    /// `P2:r1` (a register) or `a` / `0x10` (a memory location), validated
    /// against the thread count.
    fn observation(&mut self, num_threads: usize) -> Result<(Observation, Span), ParseError> {
        match self.peek().tok {
            Tok::Num(addr) => {
                let span = self.advance().span;
                Ok((Observation::Memory(Loc::from_address(addr)), span))
            }
            Tok::Ident(name) => {
                let span = self.advance().span;
                match classify(name, span)? {
                    Word::Proc(proc) => {
                        if proc.index() >= num_threads {
                            return Err(ParseError::new(
                                span,
                                format!(
                                    "processor `{name}` does not exist (the program has \
                                     {num_threads} threads)"
                                ),
                            ));
                        }
                        self.expect(&Tok::Colon, "between the processor and the register")?;
                        let (reg_name, reg_span) = self.ident("a register")?;
                        match classify(reg_name, reg_span)? {
                            Word::Reg(reg) => Ok((Observation::Register(proc, reg), span)),
                            _ => Err(ParseError::new(
                                reg_span,
                                format!("expected a register (`rN`), found `{reg_name}`"),
                            )),
                        }
                    }
                    Word::Plain => {
                        plain_name(name, span, "location name")?;
                        Ok((Observation::Memory(Loc::new(name)), span))
                    }
                    Word::Reg(_) => Err(ParseError::new(
                        span,
                        format!(
                            "a bare register cannot be observed; write `P<k>:{name}` to name \
                             its processor"
                        ),
                    )),
                }
            }
            other => Err(ParseError::new(
                self.peek().span,
                format!(
                    "expected an observation (`P<k>:rN` or a location), found {}",
                    other.describe()
                ),
            )),
        }
    }
}
