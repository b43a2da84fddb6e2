//! Recursive-descent parser for mini-C.

use std::collections::HashMap;
use std::fmt;

use crate::ast::{Ast, BinOp, Block, Expr, FuncDef, Stmt, StructDef, Type, VarDecl};
use crate::lex::{tokenize, LexError, Tok, Token};

/// An error produced while parsing mini-C.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            msg: e.msg,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses mini-C source into an [`Ast`].
///
/// # Errors
///
/// Returns a [`ParseError`] with position information on malformed input.
pub fn parse(src: &str) -> Result<Ast, ParseError> {
    let toks = tokenize(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
        typedefs: HashMap::new(),
    };
    let mut ast = p.program()?;
    ast.source_lines = line_count(src);
    Ok(ast)
}

/// The number of lines [`str::lines`] yields for `src`, counted without
/// splitting it.
fn line_count(src: &str) -> usize {
    let newlines = src.bytes().filter(|&b| b == b'\n').count();
    newlines + usize::from(!src.is_empty() && !src.ends_with('\n'))
}

/// Maximum statement/expression nesting depth. The parser recurses once
/// per nesting level, so without a cap a pathological input like ten
/// thousand `(`s overflows the stack — an abort no caller can catch. Each
/// level costs several (large, unoptimized) frames, so the cap must leave
/// ample headroom even on a 2 MiB test-thread stack in debug builds.
const MAX_NESTING_DEPTH: usize = 96;

struct Parser<'src> {
    toks: Vec<Token<'src>>,
    pos: usize,
    /// Current statement/expression nesting depth (see
    /// [`MAX_NESTING_DEPTH`]).
    depth: usize,
    /// `typedef` names in scope, resolved to their underlying type at parse
    /// time (the AST never sees typedef names).
    typedefs: HashMap<&'src str, Type>,
}

impl<'src> Parser<'src> {
    fn peek(&self) -> Tok<'src> {
        self.toks[self.pos].tok
    }

    fn peek_at(&self, off: usize) -> Tok<'src> {
        let i = (self.pos + off).min(self.toks.len() - 1);
        self.toks[i].tok
    }

    fn here(&self) -> (u32, u32) {
        let t = &self.toks[self.pos.min(self.toks.len() - 1)];
        (t.line, t.col)
    }

    fn bump(&mut self) {
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            msg: msg.into(),
            line,
            col,
        })
    }

    fn expect(&mut self, tok: Tok<'_>) -> Result<(), ParseError> {
        if self.peek() == tok {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {tok}, found {}", self.peek()))
        }
    }

    /// Enters one nesting level, erroring out (instead of overflowing the
    /// stack) past [`MAX_NESTING_DEPTH`]; the caller leaves it.
    fn enter(&mut self) -> Result<(), ParseError> {
        if self.depth >= MAX_NESTING_DEPTH {
            return self.err(format!("nesting deeper than {MAX_NESTING_DEPTH} levels"));
        }
        self.depth += 1;
        Ok(())
    }

    /// The identifier at the cursor, borrowed from the source; a caller
    /// that keeps it in the AST copies it.
    fn expect_ident(&mut self) -> Result<&'src str, ParseError> {
        match self.peek() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected identifier, found {other}")),
        }
    }

    fn is_scalar_kw(s: &str) -> bool {
        matches!(s, "int" | "char" | "long" | "short" | "unsigned" | "signed")
    }

    /// Storage-class specifiers and qualifiers that mini-C tolerates and
    /// ignores (they do not affect aliasing).
    fn is_qual(s: &str) -> bool {
        matches!(
            s,
            "const" | "static" | "extern" | "register" | "volatile" | "inline"
        )
    }

    fn skip_quals(&mut self) {
        while matches!(self.peek(), Tok::Ident(s) if Self::is_qual(s)) {
            self.bump();
        }
    }

    /// Whether `s` starts a type: a qualifier, a scalar keyword, `void`,
    /// `struct` or a typedef name.
    fn starts_type(&self, s: &str) -> bool {
        Self::is_qual(s)
            || Self::is_scalar_kw(s)
            || s == "void"
            || s == "struct"
            || self.typedefs.contains_key(s)
    }

    fn is_type_start(&self) -> bool {
        matches!(self.peek(), Tok::Ident(s) if self.starts_type(s))
    }

    fn program(&mut self) -> Result<Ast, ParseError> {
        let mut ast = Ast::default();
        while self.peek() != Tok::Eof {
            if self.peek() == Tok::Ident("typedef") {
                self.typedef_decl(&mut ast)?;
            } else if self.is_struct_def() {
                ast.structs.push(self.struct_def()?);
            } else if self.is_type_start() {
                let base = self.base_type()?;
                if self.is_func_def_after_base() {
                    ast.funcs.push(self.func_def(base)?);
                } else {
                    self.declarator_list(base, &mut ast.globals)?;
                    self.expect(Tok::Semi)?;
                }
            } else {
                return self.err(format!(
                    "expected struct, declaration or function, found {}",
                    self.peek()
                ));
            }
        }
        Ok(ast)
    }

    fn is_struct_def(&self) -> bool {
        self.peek() == Tok::Ident("struct")
            && matches!(self.peek_at(1), Tok::Ident(_))
            && self.peek_at(2) == Tok::LBrace
    }

    /// After a base type: `* ... name (` is a function definition only when
    /// the `(` is immediately after the name (function-pointer declarators
    /// instead have `(` *before* a `*`).
    fn is_func_def_after_base(&self) -> bool {
        let mut off = 0;
        while self.peek_at(off) == Tok::Star {
            off += 1;
        }
        matches!(self.peek_at(off), Tok::Ident(_)) && self.peek_at(off + 1) == Tok::LParen
    }

    fn struct_def(&mut self) -> Result<StructDef, ParseError> {
        self.bump(); // struct
        let name = self.expect_ident()?.to_string();
        let fields = self.struct_fields()?;
        self.expect(Tok::Semi)?;
        Ok(StructDef { name, fields })
    }

    /// Parses a brace-delimited struct field list (the `{ ... }` part).
    fn struct_fields(&mut self) -> Result<Vec<(String, Type)>, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while self.peek() != Tok::RBrace {
            let base = self.base_type()?;
            loop {
                let (fname, ty) = self.declarator(base.clone())?;
                fields.push((fname.to_string(), ty));
                if self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Tok::Semi)?;
        }
        self.expect(Tok::RBrace)?;
        Ok(fields)
    }

    /// Parses `typedef base declarator ;` or an inline struct definition
    /// `typedef struct [Tag] { ... } Name;` (an anonymous struct borrows
    /// the typedef name as its tag). The resolved type is recorded in the
    /// typedef table; the AST only ever sees resolved types.
    fn typedef_decl(&mut self, ast: &mut Ast) -> Result<(), ParseError> {
        self.bump(); // typedef
        let inline = self.peek() == Tok::Ident("struct")
            && (self.peek_at(1) == Tok::LBrace
                || (matches!(self.peek_at(1), Tok::Ident(_)) && self.peek_at(2) == Tok::LBrace));
        if inline {
            self.bump(); // struct
            let tag = match self.peek() {
                Tok::Ident(s) if self.peek_at(1) == Tok::LBrace => {
                    self.bump();
                    Some(s)
                }
                _ => None,
            };
            let fields = self.struct_fields()?;
            let mut stars = 0;
            while self.peek() == Tok::Star {
                self.bump();
                stars += 1;
            }
            let name = self.expect_ident()?;
            self.expect(Tok::Semi)?;
            let tag = tag.unwrap_or(name).to_string();
            ast.structs.push(StructDef {
                name: tag.clone(),
                fields,
            });
            self.typedefs
                .insert(name, Type::Struct(tag).wrap_ptr(stars));
        } else {
            let base = self.base_type()?;
            let (name, ty) = self.declarator(base)?;
            self.expect(Tok::Semi)?;
            self.typedefs.insert(name, ty);
        }
        Ok(())
    }

    fn base_type(&mut self) -> Result<Type, ParseError> {
        self.skip_quals();
        let ty = match self.peek() {
            Tok::Ident(s) if Self::is_scalar_kw(s) => {
                self.bump();
                // Consume the remaining scalar keywords (`unsigned long
                // int` etc.).
                while matches!(self.peek(), Tok::Ident(k) if Self::is_scalar_kw(k)) {
                    self.bump();
                }
                Type::Int
            }
            Tok::Ident("void") => {
                self.bump();
                Type::Void
            }
            Tok::Ident("struct") => {
                self.bump();
                Type::Struct(self.expect_ident()?.to_string())
            }
            Tok::Ident(s) if self.typedefs.contains_key(s) => {
                self.bump();
                self.typedefs[s].clone()
            }
            other => return self.err(format!("expected type, found {other}")),
        };
        self.skip_quals();
        Ok(ty)
    }

    /// Parses one declarator given the base type: `* ... name`, a
    /// function-pointer declarator `(*name)(..)`, or array suffixes
    /// (`name[N]...`), which wrap the type in [`Type::Array`] layers.
    fn declarator(&mut self, base: Type) -> Result<(&'src str, Type), ParseError> {
        let mut stars = 0;
        while self.peek() == Tok::Star {
            self.bump();
            stars += 1;
            self.skip_quals();
        }
        if self.peek() == Tok::LParen && self.peek_at(1) == Tok::Star {
            // Function pointer: (*name)(params-ignored)
            self.bump(); // (
            self.bump(); // *
            let name = self.expect_ident()?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::LParen)?;
            self.skip_balanced_parens()?;
            return Ok((name, Type::FuncPtr));
        }
        let name = self.expect_ident()?;
        let mut ty = base.wrap_ptr(stars);
        while self.peek() == Tok::LBracket {
            self.bump();
            // The extent may be any constant expression (or empty, for
            // `char buf[]` parameters); it is irrelevant to aliasing
            // because all elements summarize into one location.
            if self.peek() != Tok::RBracket {
                let _ = self.expr()?;
            }
            self.expect(Tok::RBracket)?;
            ty = Type::Array(Box::new(ty));
        }
        Ok((name, ty))
    }

    /// Skips tokens until the matching `)` of an already-consumed `(`.
    fn skip_balanced_parens(&mut self) -> Result<(), ParseError> {
        let mut depth = 1usize;
        loop {
            match self.peek() {
                Tok::LParen => {
                    depth += 1;
                    self.bump();
                }
                Tok::RParen => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return Ok(());
                    }
                }
                Tok::Eof => return self.err("unbalanced parentheses"),
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// Parses comma-separated declarators with optional initializers,
    /// appending them to `decls`.
    fn declarator_list(&mut self, base: Type, decls: &mut Vec<VarDecl>) -> Result<(), ParseError> {
        loop {
            let (line, _) = self.here();
            let (name, ty) = self.declarator(base.clone())?;
            let init = if self.peek() == Tok::Eq {
                self.bump();
                Some(self.expr()?)
            } else {
                None
            };
            decls.push(VarDecl {
                name: name.to_string(),
                ty,
                init,
                line,
            });
            if self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(())
    }

    fn func_def(&mut self, base: Type) -> Result<FuncDef, ParseError> {
        let mut stars = 0;
        while self.peek() == Tok::Star {
            self.bump();
            stars += 1;
        }
        let name = self.expect_ident()?.to_string();
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        if self.peek() != Tok::RParen {
            if self.peek() == Tok::Ident("void") && self.peek_at(1) == Tok::RParen {
                self.bump();
            } else {
                loop {
                    let pbase = self.base_type()?;
                    let (pname, pty) = self.declarator(pbase)?;
                    params.push((pname.to_string(), pty));
                    if self.peek() == Tok::Comma {
                        self.bump();
                    } else {
                        break;
                    }
                }
            }
        }
        self.expect(Tok::RParen)?;
        let body = self.block()?;
        Ok(FuncDef {
            name,
            ret: base.wrap_ptr(stars),
            params,
            body,
        })
    }

    fn block(&mut self) -> Result<Block, ParseError> {
        self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        let mut lines = Vec::new();
        while self.peek() != Tok::RBrace {
            if self.peek() == Tok::Eof {
                return self.err("unterminated block");
            }
            let (line, _) = self.here();
            stmts.push(self.stmt()?);
            lines.push(line);
        }
        self.expect(Tok::RBrace)?;
        Ok(Block { stmts, lines })
    }

    fn stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let stmt = self.stmt_at_depth();
        self.depth -= 1;
        stmt
    }

    fn stmt_at_depth(&mut self) -> Result<Stmt, ParseError> {
        match self.peek() {
            Tok::LBrace => Ok(Stmt::Block(self.block()?)),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Block(Block::default()))
            }
            Tok::Ident("if") => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_blk = self.stmt_as_block()?;
                let else_blk = if self.peek() == Tok::Ident("else") {
                    self.bump();
                    Some(self.stmt_as_block()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_blk,
                    else_blk,
                })
            }
            Tok::Ident("while") => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let body = self.stmt_as_block()?;
                Ok(Stmt::While { cond, body })
            }
            // Mini-C loops leave only through their condition: lowering a
            // `break` or `continue` as a no-op would drop the paths it
            // takes, so both are rejected.
            Tok::Ident(kw @ ("break" | "continue")) => {
                self.err(format!("`{kw}` is not supported in mini-C"))
            }
            Tok::Ident("for") if self.peek_at(1) == Tok::LParen => {
                // Desugared to `{ init; while (cond) { body; step; } }`.
                // `continue` is rejected, so the step always runs at the
                // end of the body.
                self.bump();
                self.expect(Tok::LParen)?;
                let (line, _) = self.here();
                let mut stmts: Vec<Stmt> = Vec::new();
                if self.peek() != Tok::Semi {
                    if self.is_type_start() {
                        let base = self.base_type()?;
                        let mut decls = Vec::new();
                        self.declarator_list(base, &mut decls)?;
                        stmts.extend(decls.into_iter().map(Stmt::Decl));
                    } else {
                        stmts.push(self.simple_assign()?);
                    }
                }
                self.expect(Tok::Semi)?;
                let cond = if self.peek() != Tok::Semi {
                    self.expr()?
                } else {
                    Expr::Num(1)
                };
                self.expect(Tok::Semi)?;
                let step = if self.peek() != Tok::RParen {
                    Some(self.simple_assign()?)
                } else {
                    None
                };
                self.expect(Tok::RParen)?;
                let mut body = self.stmt_as_block()?;
                if let Some(s) = step {
                    body.stmts.push(s);
                    body.lines.push(line);
                }
                let mut lines = vec![line; stmts.len()];
                stmts.push(Stmt::While { cond, body });
                lines.push(line);
                Ok(Stmt::Block(Block { stmts, lines }))
            }
            Tok::Ident("return") => {
                self.bump();
                let e = if self.peek() != Tok::Semi {
                    Some(self.expr()?)
                } else {
                    None
                };
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return(e))
            }
            Tok::Ident("free") if self.peek_at(1) == Tok::LParen => {
                self.bump();
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Free(e))
            }
            Tok::Ident("spawn") if matches!(self.peek_at(1), Tok::Ident(_) | Tok::LParen) => {
                self.bump();
                let callee = match self.peek() {
                    Tok::Ident(s) => {
                        self.bump();
                        s.to_string()
                    }
                    other => {
                        return self.err(format!(
                            "spawn target must be a named function, found {other}"
                        ))
                    }
                };
                self.expect(Tok::LParen)?;
                let mut args = Vec::new();
                if self.peek() != Tok::RParen {
                    loop {
                        args.push(self.expr()?);
                        if self.peek() == Tok::Comma {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                }
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::Spawn { callee, args })
            }
            Tok::Ident(kw @ ("lock" | "unlock")) if self.peek_at(1) == Tok::LParen => {
                self.bump();
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::Semi)?;
                if kw == "lock" {
                    Ok(Stmt::Lock(e))
                } else {
                    Ok(Stmt::Unlock(e))
                }
            }
            _ if self.is_type_start() => {
                let base = self.base_type()?;
                let mut decls = Vec::new();
                self.declarator_list(base, &mut decls)?;
                self.expect(Tok::Semi)?;
                // A single declarator lowers to one Decl; `int *a, *b;`
                // lowers every declarator inside one block.
                if decls.len() == 1 {
                    if let Some(decl) = decls.pop() {
                        return Ok(Stmt::Decl(decl));
                    }
                }
                let lines = decls.iter().map(|d| d.line).collect();
                Ok(Stmt::Block(Block {
                    stmts: decls.into_iter().map(Stmt::Decl).collect(),
                    lines,
                }))
            }
            _ => {
                let lhs = self.expr()?;
                if self.peek() == Tok::Eq {
                    self.bump();
                    let rhs = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Assign { lhs, rhs })
                } else {
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Expr(lhs))
                }
            }
        }
    }

    /// An assignment or expression without the trailing `;` (the init/step
    /// clauses of a `for`).
    fn simple_assign(&mut self) -> Result<Stmt, ParseError> {
        let lhs = self.expr()?;
        if self.peek() == Tok::Eq {
            self.bump();
            let rhs = self.expr()?;
            Ok(Stmt::Assign { lhs, rhs })
        } else {
            Ok(Stmt::Expr(lhs))
        }
    }

    fn stmt_as_block(&mut self) -> Result<Block, ParseError> {
        if self.peek() == Tok::LBrace {
            self.block()
        } else {
            let (line, _) = self.here();
            Ok(Block {
                stmts: vec![self.stmt()?],
                lines: vec![line],
            })
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        self.binary_expr(0)
    }

    /// A binary operator and its precedence: comparisons and logic bind
    /// loosest, then `+ -`, then `* /`.
    fn binary_op(tok: Tok<'_>) -> Option<(BinOp, u8)> {
        match tok {
            Tok::CmpOp(_) => Some((BinOp::Cmp, 0)),
            Tok::Plus => Some((BinOp::Add, 1)),
            Tok::Minus => Some((BinOp::Sub, 1)),
            Tok::Star => Some((BinOp::Mul, 2)),
            Tok::Slash => Some((BinOp::Div, 2)),
            _ => None,
        }
    }

    /// Operands joined by binary operators of precedence `min` or higher,
    /// left-associative.
    fn binary_expr(&mut self, min: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, prec)) = Self::binary_op(self.peek()).filter(|&(_, p)| p >= min) {
            self.bump();
            let rhs = self.binary_expr(prec + 1)?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.enter()?;
        let expr = self.unary_expr_at_depth();
        self.depth -= 1;
        expr
    }

    fn unary_expr_at_depth(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Star => {
                self.bump();
                Ok(Expr::Deref(Box::new(self.unary_expr()?)))
            }
            Tok::Amp => {
                self.bump();
                Ok(Expr::AddrOf(Box::new(self.unary_expr()?)))
            }
            Tok::Bang | Tok::Minus => {
                self.bump();
                Ok(Expr::Unary(Box::new(self.unary_expr()?)))
            }
            Tok::LParen if self.cast_ahead() => {
                // A C cast `(type *) e` is aliasing-transparent: parse and
                // discard the type, return the operand.
                self.bump();
                let _ = self.base_type()?;
                while self.peek() == Tok::Star {
                    self.bump();
                    self.skip_quals();
                }
                self.expect(Tok::RParen)?;
                self.unary_expr()
            }
            _ => self.postfix_expr(),
        }
    }

    /// `true` when the current `(` opens a cast (`(int *)`, `(UChar)`,
    /// `(struct s *)`) rather than a parenthesized expression.
    fn cast_ahead(&self) -> bool {
        self.peek() == Tok::LParen
            && matches!(self.peek_at(1), Tok::Ident(s) if self.starts_type(s))
    }

    fn postfix_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary_expr()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let f = self.expect_ident()?.to_string();
                    e = Expr::Field(Box::new(e), f);
                }
                Tok::Arrow => {
                    self.bump();
                    let f = self.expect_ident()?.to_string();
                    e = Expr::Arrow(Box::new(e), f);
                }
                Tok::LBracket => {
                    self.bump();
                    let idx = self.expr()?;
                    self.expect(Tok::RBracket)?;
                    e = Expr::Deref(Box::new(Expr::Binary(
                        BinOp::Add,
                        Box::new(e),
                        Box::new(idx),
                    )));
                }
                Tok::LParen => {
                    self.bump();
                    let mut args = Vec::new();
                    if self.peek() != Tok::RParen {
                        loop {
                            args.push(self.expr()?);
                            if self.peek() == Tok::Comma {
                                self.bump();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen)?;
                    e = Expr::Call {
                        callee: Box::new(e),
                        args,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    fn primary_expr(&mut self) -> Result<Expr, ParseError> {
        match self.peek() {
            Tok::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            // String literals are opaque scalars to the pointer analysis.
            Tok::Str(_) => {
                self.bump();
                Ok(Expr::Num(0))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident("NULL" | "null") => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::Ident("malloc") if self.peek_at(1) == Tok::LParen => {
                self.bump();
                self.bump();
                self.skip_balanced_parens()?;
                Ok(Expr::Malloc)
            }
            Tok::Ident("sizeof") if self.peek_at(1) == Tok::LParen => {
                self.bump();
                self.bump();
                self.skip_balanced_parens()?;
                Ok(Expr::Num(4))
            }
            Tok::Ident(s) => {
                self.bump();
                Ok(Expr::Ident(s.to_string()))
            }
            other => self.err(format!("expected expression, found {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure2_program() {
        let ast = parse(
            r#"
            void main() {
                int a; int b; int c;
                int *p; int *q; int *r;
                p = &a;
                q = &b;
                r = &c;
                q = p;
                q = r;
            }
            "#,
        )
        .unwrap();
        assert_eq!(ast.funcs.len(), 1);
        assert_eq!(ast.funcs[0].name, "main");
        assert_eq!(ast.funcs[0].body.stmts.len(), 11);
    }

    #[test]
    fn parses_globals_and_structs() {
        let ast = parse(
            r#"
            struct list { struct list *next; int *data; };
            struct list head;
            int **x, *y;
            void main() { }
            "#,
        )
        .unwrap();
        assert_eq!(ast.structs.len(), 1);
        assert_eq!(ast.globals.len(), 3);
        assert_eq!(
            ast.globals[1].ty,
            Type::Ptr(Box::new(Type::Ptr(Box::new(Type::Int))))
        );
    }

    #[test]
    fn parses_control_flow_and_calls() {
        let ast = parse(
            r#"
            int *id(int *p) { return p; }
            void main() {
                int a; int *x;
                if (a > 0) { x = id(&a); } else { x = NULL; }
                while (a < 10) { a = a + 1; }
                free(x);
            }
            "#,
        )
        .unwrap();
        assert_eq!(ast.funcs.len(), 2);
    }

    #[test]
    fn parses_function_pointers() {
        let ast = parse(
            r#"
            void f() { }
            void (*fp)();
            void main() { fp = &f; fp(); }
            "#,
        )
        .unwrap();
        assert_eq!(ast.globals.len(), 1);
        assert_eq!(ast.globals[0].ty, Type::FuncPtr);
    }

    #[test]
    fn parses_malloc_and_sizeof() {
        let ast = parse("void main() { int *p; p = malloc(sizeof(int)); }").unwrap();
        let f = &ast.funcs[0];
        assert!(matches!(
            &f.body.stmts[1],
            Stmt::Assign {
                rhs: Expr::Malloc,
                ..
            }
        ));
    }

    #[test]
    fn parses_array_indexing_as_deref() {
        let ast = parse("int *a; void main() { int x; x = a[2]; }").unwrap();
        let f = &ast.funcs[0];
        assert!(matches!(
            &f.body.stmts[1],
            Stmt::Assign {
                rhs: Expr::Deref(_),
                ..
            }
        ));
    }

    #[test]
    fn string_literals_parse_as_opaque_scalars() {
        let ast = parse(r#"void main() { int x; x = "hi"; printf("%d", x); }"#).unwrap();
        assert_eq!(ast.funcs[0].body.stmts.len(), 3);
    }

    #[test]
    fn multi_declarator_statement_parses() {
        // Regression: `int *a, *b;` in statement position must lower every
        // declarator (one block of decls), not panic.
        let ast = parse("void main() { int *a, *b; a = b; }").unwrap();
        let f = &ast.funcs[0];
        assert_eq!(f.body.stmts.len(), 2);
        let Stmt::Block(b) = &f.body.stmts[0] else {
            panic!("expected a block of decls, got {:?}", f.body.stmts[0]);
        };
        assert_eq!(b.stmts.len(), 2);
        assert!(b.stmts.iter().all(|s| matches!(s, Stmt::Decl(_))));
    }

    #[test]
    fn multi_declarator_with_initializers() {
        let ast = parse("int g; void main() { int *a = &g, *b = a, c; }").unwrap();
        let Stmt::Block(b) = &ast.funcs[0].body.stmts[0] else {
            panic!("expected a block of decls");
        };
        assert_eq!(b.stmts.len(), 3);
        let inits: Vec<bool> = b
            .stmts
            .iter()
            .map(|s| matches!(s, Stmt::Decl(d) if d.init.is_some()))
            .collect();
        assert_eq!(inits, vec![true, true, false]);
    }

    #[test]
    fn deep_expression_nesting_errors_instead_of_overflowing() {
        let mut src = String::from("void main() { int x; x = ");
        for _ in 0..20_000 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..20_000 {
            src.push(')');
        }
        src.push_str("; }");
        let err = parse(&src).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn deep_statement_nesting_errors_instead_of_overflowing() {
        let mut src = String::from("void main() ");
        for _ in 0..20_000 {
            src.push('{');
        }
        for _ in 0..20_000 {
            src.push('}');
        }
        let err = parse(&src).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn deep_unary_chain_errors_instead_of_overflowing() {
        let mut src = String::from("int *p; void main() { int x; x = ");
        for _ in 0..20_000 {
            src.push('!');
        }
        src.push_str("p; }");
        let err = parse(&src).unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }

    #[test]
    fn reasonable_nesting_still_parses() {
        let mut src = String::from("void main() { int x; x = ");
        for _ in 0..64 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..64 {
            src.push(')');
        }
        src.push_str("; }");
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn error_mentions_position() {
        let err = parse("void main() { x = ; }").unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("expected expression"));
    }

    #[test]
    fn error_on_unterminated_block() {
        assert!(parse("void main() {").is_err());
    }

    #[test]
    fn parses_spawn_lock_unlock() {
        let ast = parse(
            r#"
            int m;
            int *g;
            void worker(int *p) { lock(&m); *p = NULL; unlock(&m); }
            void main() { spawn worker(g); }
            "#,
        )
        .unwrap();
        let worker = &ast.funcs[0];
        assert!(matches!(worker.body.stmts[0], Stmt::Lock(_)));
        assert!(matches!(worker.body.stmts[2], Stmt::Unlock(_)));
        let main = &ast.funcs[1];
        assert!(
            matches!(&main.body.stmts[0], Stmt::Spawn { callee, args } if callee == "worker" && args.len() == 1)
        );
    }

    #[test]
    fn spawn_of_non_identifier_is_a_parse_error() {
        let err = parse("void f() { } void main() { spawn (*fp)(); }").unwrap_err();
        assert!(err.to_string().contains("spawn target"), "{err}");
        assert_eq!(err.line, 1);
        assert!(err.col > 0);
    }

    #[test]
    fn spawn_without_parens_is_a_parse_error() {
        let err = parse("void f() { } void main() { spawn f; }").unwrap_err();
        assert!(err.to_string().contains("expected `(`"), "{err}");
    }

    #[test]
    fn lock_requires_closing_paren() {
        let err = parse("int m; void main() { lock(&m; }").unwrap_err();
        assert!(err.to_string().contains("expected `)`"), "{err}");
    }

    #[test]
    fn lock_as_plain_identifier_still_parses() {
        // `lock`/`unlock`/`spawn` only act as keywords in statement shapes;
        // a variable of the same name keeps working.
        let ast = parse("int lock; void main() { lock = 3; }").unwrap();
        assert!(matches!(ast.funcs[0].body.stmts[0], Stmt::Assign { .. }));
    }

    #[test]
    fn parses_typedefs() {
        let ast = parse(
            r#"
            typedef unsigned char UChar;
            typedef struct state_s { int *buf; } State;
            typedef struct { int *q; } Anon;
            typedef int (*handler)();
            UChar g;
            State st;
            Anon an;
            State *ps;
            handler h;
            void main() { }
            "#,
        )
        .unwrap();
        assert_eq!(ast.structs.len(), 2);
        assert_eq!(ast.structs[0].name, "state_s");
        // Anonymous struct borrows the typedef name as its tag.
        assert_eq!(ast.structs[1].name, "Anon");
        assert_eq!(ast.globals[0].ty, Type::Int);
        assert_eq!(ast.globals[1].ty, Type::Struct("state_s".into()));
        assert_eq!(ast.globals[2].ty, Type::Struct("Anon".into()));
        assert_eq!(
            ast.globals[3].ty,
            Type::Ptr(Box::new(Type::Struct("state_s".into())))
        );
        assert_eq!(ast.globals[4].ty, Type::FuncPtr);
    }

    #[test]
    fn parses_array_declarators_as_array_types() {
        let ast = parse("int *a[4]; int b[2][3]; void main() { }").unwrap();
        assert_eq!(
            ast.globals[0].ty,
            Type::Array(Box::new(Type::Ptr(Box::new(Type::Int))))
        );
        assert_eq!(
            ast.globals[1].ty,
            Type::Array(Box::new(Type::Array(Box::new(Type::Int))))
        );
    }

    #[test]
    fn for_loop_desugars_to_while() {
        let ast = parse(
            r#"
            void main() {
                int i; int n;
                for (i = 0; i < n; i = i + 1) { n = n - 1; }
            }
            "#,
        )
        .unwrap();
        let Stmt::Block(b) = &ast.funcs[0].body.stmts[2] else {
            panic!("expected desugared block");
        };
        assert!(matches!(b.stmts[0], Stmt::Assign { .. }));
        let Stmt::While { body, .. } = &b.stmts[1] else {
            panic!("expected while");
        };
        // Step statement appended to the body.
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn for_loop_with_decl_and_empty_clauses() {
        let ast = parse("void main() { for (int i = 0;;) { i = 1; } }").unwrap();
        let Stmt::Block(b) = &ast.funcs[0].body.stmts[0] else {
            panic!("expected desugared block");
        };
        assert!(matches!(b.stmts[0], Stmt::Decl(_)));
        assert!(matches!(b.stmts[1], Stmt::While { .. }));
    }

    #[test]
    fn casts_are_transparent() {
        let ast = parse(
            r#"
            typedef struct bz_s { int *p; } Bz;
            void main() { int *x; Bz *s; s = (Bz *)malloc(10); x = (int *)s; x = (unsigned)1; }
            "#,
        )
        .unwrap();
        let stmts = &ast.funcs[0].body.stmts;
        assert!(matches!(
            &stmts[2],
            Stmt::Assign {
                rhs: Expr::Malloc,
                ..
            }
        ));
        assert!(matches!(
            &stmts[3],
            Stmt::Assign {
                rhs: Expr::Ident(_),
                ..
            }
        ));
    }

    #[test]
    fn storage_qualifiers_are_tolerated() {
        let ast = parse(
            r#"
            static const int limit;
            static void helper(const char *msg) { }
            void main() { static int once; helper(NULL); }
            "#,
        )
        .unwrap();
        assert_eq!(ast.funcs.len(), 2);
        assert_eq!(ast.globals.len(), 1);
    }

    #[test]
    fn parses_field_chains() {
        let ast = parse(
            r#"
            struct s { int *p; };
            struct s g;
            void main() { int *q; q = g.p; g.p = q; }
            "#,
        )
        .unwrap();
        assert_eq!(ast.funcs[0].body.stmts.len(), 3);
    }

    #[test]
    fn line_count_matches_str_lines() {
        for src in [
            "",
            "a",
            "a\n",
            "a\nb",
            "\n",
            "\n\n",
            "a\r\n",
            "a\r",
            "a\r\nb\n\n",
        ] {
            assert_eq!(line_count(src), src.lines().count(), "{src:?}");
        }
    }

    #[test]
    fn break_is_rejected_at_its_position() {
        let err = parse("int c; void main() {\n  while (1) {\n    if (c) { break; }\n  }\n}")
            .unwrap_err();
        assert_eq!(err.msg, "`break` is not supported in mini-C");
        assert_eq!((err.line, err.col), (3, 14));
    }

    #[test]
    fn continue_is_rejected_at_its_position() {
        let err = parse("void main() { while (1) { continue; } }").unwrap_err();
        assert_eq!(err.msg, "`continue` is not supported in mini-C");
        assert_eq!((err.line, err.col), (1, 27));
    }
}
