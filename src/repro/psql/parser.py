"""Recursive-descent parser for PSQL.

Grammar (terminals quoted, ``[]`` optional, ``{}`` repetition)::

    statement   :=  [ 'explain' [ 'analyze' ] ] query
    query       :=  'select' select_list
                    'from' name_list
                    [ 'on' name_list ]
                    [ 'at' at_clause ]
                    [ 'where' condition ]
    select_list :=  sel_item { ',' sel_item }
    sel_item    :=  '*' | function_call | qualified_name
    name_list   :=  IDENT { ',' IDENT }
    at_clause   :=  area_spec SPATIAL_OP area_spec
    area_spec   :=  window | loc_ref | [ '(' ] query [ ')' ]
    window      :=  '{' NUMBER '±' NUMBER ',' NUMBER '±' NUMBER '}'
    condition   :=  or_expr
    or_expr     :=  and_expr { 'or' and_expr }
    and_expr    :=  not_expr { 'and' not_expr }
    not_expr    :=  [ 'not' ] primary_cond
    primary_cond:=  '(' condition ')' | comparison
    comparison  :=  operand ( '>' '<' '>=' '<=' '=' '<>' ) operand
    operand     :=  NUMBER | STRING | function_call | qualified_name

Spatial operator names are identifiers validated against the registry in
:mod:`repro.geometry.predicates` (covering, covered-by, overlapping,
disjoined, intersecting).
"""

from __future__ import annotations

import math
from typing import Union

from repro.geometry.predicates import OPERATORS
from repro.psql import ast
from repro.psql.errors import PsqlSyntaxError
from repro.psql.lexer import EOF, IDENT, NUMBER, STRING, Token, tokenize


def parse(text: str) -> ast.Query:
    """Parse a PSQL query string into its AST.

    Raises:
        PsqlSyntaxError: on any lexical or grammatical problem.
    """
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    parser.expect_eof()
    return query


def parse_statement(text: str) -> ast.Statement:
    """Parse a statement: a query, optionally under ``explain [analyze]``.

    Raises:
        PsqlSyntaxError: on any lexical or grammatical problem.
    """
    parser = _Parser(tokenize(text))
    statement = parser.parse_statement()
    parser.expect_eof()
    return statement


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing ------------------------------------------------------

    @property
    def _cur(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        tok = self._cur
        if tok.kind != EOF:
            self._pos += 1
        return tok

    def _accept_keyword(self, word: str) -> bool:
        if self._cur.is_keyword(word):
            self._advance()
            return True
        return False

    def _accept_symbol(self, sym: str) -> bool:
        if self._cur.is_symbol(sym):
            self._advance()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        if not self._accept_keyword(word):
            raise PsqlSyntaxError(
                f"expected {word!r}, found {self._describe()}",
                self._cur.position)

    def _expect_symbol(self, sym: str) -> None:
        if not self._accept_symbol(sym):
            raise PsqlSyntaxError(
                f"expected {sym!r}, found {self._describe()}",
                self._cur.position)

    def _expect_ident(self) -> str:
        if self._cur.kind != IDENT:
            raise PsqlSyntaxError(
                f"expected a name, found {self._describe()}",
                self._cur.position)
        return self._advance().text

    def _expect_number(self) -> float:
        tok = self._cur
        if tok.kind != NUMBER:
            raise PsqlSyntaxError(
                f"expected a number, found {self._describe()}",
                tok.position)
        value = float(self._advance().text)
        if not math.isfinite(value):
            raise PsqlSyntaxError(f"number {tok.text!r} is out of range",
                                  tok.position)
        return value

    def _describe(self) -> str:
        tok = self._cur
        return "end of query" if tok.kind == EOF else repr(tok.text)

    def expect_eof(self) -> None:
        if self._cur.kind != EOF:
            raise PsqlSyntaxError(
                f"unexpected trailing input {self._describe()}",
                self._cur.position)

    # -- query -----------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self._accept_keyword("explain"):
            analyze = self._accept_keyword("analyze")
            return ast.Explain(query=self.parse_query(), analyze=analyze)
        return self.parse_query()

    def parse_query(self) -> ast.Query:
        self._expect_keyword("select")
        select = self._select_list()
        self._expect_keyword("from")
        relations = self._name_list()
        pictures: tuple[str, ...] = ()
        at = None
        where = None
        if self._accept_keyword("on"):
            pictures = self._name_list()
        if self._accept_keyword("at"):
            at = self._at_clause()
        if self._accept_keyword("where"):
            where = self._condition()
        return ast.Query(select=select, relations=relations,
                         pictures=pictures, at=at, where=where)

    # -- select list ---------------------------------------------------------------

    def _select_list(self) -> tuple[Union[ast.ColumnRef, ast.FunctionCall,
                                          ast.Star], ...]:
        items = [self._select_item()]
        while self._accept_symbol(","):
            items.append(self._select_item())
        return tuple(items)

    def _select_item(self) -> Union[ast.ColumnRef, ast.FunctionCall,
                                    ast.Star]:
        if self._accept_symbol("*"):
            return ast.Star()
        name = self._expect_ident()
        if self._cur.is_symbol("("):
            return self._function_call(name)
        return self._qualified(name)

    def _qualified(self, first: str) -> ast.ColumnRef:
        if self._accept_symbol("."):
            column = self._expect_ident()
            return ast.ColumnRef(column=column, relation=first)
        return ast.ColumnRef(column=first)

    def _function_call(self, name: str) -> ast.FunctionCall:
        self._expect_symbol("(")
        args: list[ast.Expression] = []
        if not self._cur.is_symbol(")"):
            args.append(self._operand())
            while self._accept_symbol(","):
                args.append(self._operand())
        self._expect_symbol(")")
        return ast.FunctionCall(name=name, args=tuple(args))

    def _name_list(self) -> tuple[str, ...]:
        names = [self._expect_ident()]
        while self._accept_symbol(","):
            names.append(self._expect_ident())
        return tuple(names)

    # -- at clause ---------------------------------------------------------------------

    def _at_clause(self) -> ast.AtClause:
        left = self._area_spec()
        op = self._spatial_op()
        right = self._area_spec()
        return ast.AtClause(left=left, op=op, right=right)

    def _spatial_op(self) -> str:
        tok = self._cur
        if tok.kind != IDENT or tok.text.lower() not in OPERATORS:
            raise PsqlSyntaxError(
                f"expected a spatial operator "
                f"({', '.join(sorted(OPERATORS))}), found {self._describe()}",
                tok.position)
        return self._advance().text.lower()

    def _area_spec(self) -> ast.AreaSpec:
        if self._cur.is_symbol("{"):
            return self._window()
        if self._cur.is_keyword("select"):
            return ast.SubquerySpec(query=self.parse_query())
        if self._accept_symbol("("):
            spec = self._area_spec()
            self._expect_symbol(")")
            return spec
        name = self._expect_ident()
        if self._accept_symbol("."):
            column = self._expect_ident()
            return ast.LocRef(column=column, relation=name)
        return ast.LocRef(column=name)

    def _window(self) -> ast.WindowLiteral:
        self._expect_symbol("{")
        cx = self._expect_number()
        self._expect_symbol("±")
        dx = self._expect_number()
        self._expect_symbol(",")
        cy = self._expect_number()
        self._expect_symbol("±")
        dy = self._expect_number()
        self._expect_symbol("}")
        if dx < 0 or dy < 0:
            raise PsqlSyntaxError("window extents must be non-negative")
        return ast.WindowLiteral(cx=cx, dx=dx, cy=cy, dy=dy)

    # -- where clause --------------------------------------------------------------------

    def _condition(self) -> ast.Condition:
        left = self._and_expr()
        while self._accept_keyword("or"):
            left = ast.Or(left=left, right=self._and_expr())
        return left

    def _and_expr(self) -> ast.Condition:
        left = self._not_expr()
        while self._accept_keyword("and"):
            left = ast.And(left=left, right=self._not_expr())
        return left

    def _not_expr(self) -> ast.Condition:
        if self._accept_keyword("not"):
            return ast.Not(operand=self._not_expr())
        return self._primary_condition()

    def _primary_condition(self) -> ast.Condition:
        if self._accept_symbol("("):
            cond = self._condition()
            self._expect_symbol(")")
            return cond
        left = self._operand()
        op = self._comparison_op()
        right = self._operand()
        return ast.Comparison(left=left, op=op, right=right)

    def _comparison_op(self) -> str:
        for sym in (">=", "<=", "<>", ">", "<", "="):
            if self._accept_symbol(sym):
                return sym
        raise PsqlSyntaxError(
            f"expected a comparison operator, found {self._describe()}",
            self._cur.position)

    def _operand(self) -> ast.Expression:
        tok = self._cur
        if tok.kind == NUMBER:
            value = self._expect_number()
            return ast.Literal(value=int(value) if value.is_integer()
                               else value)
        if tok.kind == STRING:
            self._advance()
            return ast.Literal(value=tok.text)
        if tok.kind == IDENT:
            name = self._advance().text
            if self._cur.is_symbol("("):
                return self._function_call(name)
            return self._qualified(name)
        raise PsqlSyntaxError(
            f"expected a value, found {self._describe()}", tok.position)
