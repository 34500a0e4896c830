"""Seeded synthetic Java: a small source model, a renderer and planted edits.

The generator keeps its own record of every method it adds or removes and of
every statement it changes, so the benchmark can check the program's output
against what was planted rather than against the program itself.  Rendered
statements are single-line, single-spaced text, which is exactly how the
program's parser reports a statement.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field

NOUNS = (
    "cache", "size", "buffer", "request", "response", "session", "user", "token",
    "config", "entry", "node", "index", "count", "total", "limit", "timeout",
    "listener", "handler", "event", "queue", "item", "batch", "stream", "file",
    "path", "name", "value", "key", "result", "state", "status", "channel",
    "message", "worker", "task", "job", "pool", "lock", "retry", "offset",
    "segment", "shard", "column", "row", "schema", "table", "metric", "span",
)
VERBS = (
    "get", "set", "update", "compute", "load", "save", "handle", "process",
    "build", "create", "find", "remove", "add", "check", "validate", "parse",
    "format", "reset", "close", "open", "send", "read", "write", "flush",
    "apply", "merge", "resolve", "register", "notify", "collect",
)
SUFFIXES = ("Manager", "Service", "Handler", "Util", "Factory", "Controller",
            "Repository", "Cache", "Parser", "Client", "Builder", "Registry")
PACKAGES = ("org.acme.core", "org.acme.io", "com.example.store", "net.demo.http",
            "io.sample.batch", "org.acme.util", "com.example.auth", "net.demo.cli")
TYPES = ("int", "long", "boolean", "String", "double", "List<String>",
         "Map<String, Integer>", "Set<Long>", "byte[]", "Optional<String>")
RETURN_TYPES = ("void", "void", "void", "int", "boolean", "String", "long",
                "List<String>", "Map<String, Integer>")
IMPORTS = ("java.util.List", "java.util.Map", "java.util.Set", "java.util.ArrayList",
           "java.util.HashMap", "java.util.Optional", "java.io.IOException",
           "java.util.concurrent.TimeUnit", "java.util.function.Function",
           "java.nio.file.Path", "java.util.Objects", "java.time.Duration")
COMMENT_WORDS = (
    "the", "a", "to", "of", "in", "for", "and", "when", "with", "on", "is", "not",
    "this", "we", "it", "only", "once", "before", "after", "keep", "avoid",
    "cache", "request", "value", "entry", "caller", "state", "lock", "retry",
    "null", "empty", "first", "last", "order", "buffer", "timeout", "closed",
)
METHOD_ANNOTATIONS = ("Override", "Deprecated", 'SuppressWarnings("unchecked")')


def camel(*parts: str) -> str:
    return parts[0] + "".join(p[:1].upper() + p[1:] for p in parts[1:])


def pascal(*parts: str) -> str:
    return "".join(p[:1].upper() + p[1:] for p in parts)


@dataclass
class Stmt:
    """One statement line; a block statement also owns its inner lines."""
    text: str
    body: list["Stmt"] | None = None  # None: simple statement; list: block
    tail: str | None = None  # closing line of a block, e.g. '} catch (...) {'
    tail_body: list["Stmt"] | None = None
    comment: str | None = None  # trailing '//' comment on the same line


@dataclass
class Method:
    name: str
    return_type: str | None  # None: constructor
    params: list[tuple[str, str]]
    modifiers: list[str]
    annotations: list[str]
    doc: str | None
    body: list[Stmt]
    throws: list[str] = field(default_factory=list)


@dataclass
class Field:
    name: str
    type: str
    modifiers: list[str]
    init: str | None
    comment: str | None = None


@dataclass
class JClass:
    name: str
    fields: list[Field]
    methods: list[Method]
    inner: list["JClass"]
    doc: str | None = None


@dataclass
class JFile:
    package: str
    imports: list[str]
    classes: list[JClass]
    license: bool = False

    def all_classes(self) -> list[JClass]:
        out: list[JClass] = []

        def walk(c: JClass) -> None:
            out.append(c)
            for inner in c.inner:
                walk(inner)

        for c in self.classes:
            walk(c)
        return out


def method_entries(jfile: JFile) -> list[tuple[str, str]]:
    """(kind, name) of every method and constructor in a file, as the
    template names them: kind is 'method' or 'constructor'."""
    return [
        ("constructor" if m.return_type is None else "method", m.name)
        for c in jfile.all_classes() for m in c.methods
    ]


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _stmt_lines(s: Stmt, indent: str, out: list[str]) -> None:
    line = indent + s.text + (" {" if s.body is not None else "")
    if s.comment:
        line += " // " + s.comment
    out.append(line)
    if s.body is None:
        return
    for inner in s.body:
        _stmt_lines(inner, indent + "    ", out)
    if s.tail is not None:
        out.append(indent + "} " + s.tail + " {")
        for inner in s.tail_body or []:
            _stmt_lines(inner, indent + "    ", out)
    out.append(indent + "}")


def _method_lines(m: Method, indent: str, out: list[str]) -> None:
    if m.doc:
        out.append(f"{indent}/** {m.doc} */")
    for a in m.annotations:
        out.append(f"{indent}@{a}")
    params = ", ".join(f"{t} {n}" for t, n in m.params)
    head = " ".join(m.modifiers + ([m.return_type] if m.return_type else []) + [m.name])
    throws = f" throws {', '.join(m.throws)}" if m.throws else ""
    out.append(f"{indent}{head}({params}){throws} {{")
    for s in m.body:
        _stmt_lines(s, indent + "    ", out)
    out.append(f"{indent}}}")


def _class_lines(c: JClass, indent: str, out: list[str], top: bool) -> None:
    if c.doc:
        out.append(f"{indent}/** {c.doc} */")
    mods = "public class" if top else "static class"
    out.append(f"{indent}{mods} {c.name} {{")
    inner_indent = indent + "    "
    for f in c.fields:
        init = f" = {f.init}" if f.init is not None else ""
        line = f"{inner_indent}{' '.join(f.modifiers + [f.type, f.name])}{init};"
        if f.comment:
            line += " // " + f.comment
        out.append(line)
    for m in c.methods:
        out.append("")
        _method_lines(m, inner_indent, out)
    for inner in c.inner:
        out.append("")
        _class_lines(inner, inner_indent, out, top=False)
    out.append(f"{indent}}}")


def render(jfile: JFile) -> str:
    out: list[str] = []
    if jfile.license:
        out.append("/*")
        out.append(" * Copyright (c) the project authors.")
        out.append(" * Licensed under the Apache License, Version 2.0.")
        out.append(" */")
    out.append(f"package {jfile.package};")
    out.append("")
    for imp in jfile.imports:
        out.append(f"import {imp};")
    for c in jfile.classes:
        out.append("")
        _class_lines(c, "", out, top=True)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


class JavaGen:
    """Draws identifiers, statements, methods and files from one Random."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.serial = 0  # makes generated names unique within a generator
        self.short = False  # one-word variables and comments, for dense files

    def words(self, lo: int, hi: int) -> str:
        return " ".join(self.rng.choice(COMMENT_WORDS) for _ in range(self.rng.randint(lo, hi)))

    def fresh(self) -> int:
        self.serial += 1
        return self.serial

    def var(self) -> str:
        if self.short:
            return self.rng.choice(NOUNS)
        return camel(self.rng.choice(NOUNS), self.rng.choice(NOUNS))

    def expr(self) -> str:
        r = self.rng.random()
        if r < 0.4:
            return f"{self.var()} + {self.rng.randint(1, 99)}"
        if r < 0.7:
            return f"{camel(self.rng.choice(VERBS), self.rng.choice(NOUNS))}({self.var()})"
        return f"{self.var()}.{camel(self.rng.choice(VERBS), self.rng.choice(NOUNS))}()"

    def simple_stmt(self) -> Stmt:
        r = self.rng.random()
        if r < 0.3:
            return Stmt(f"int {self.var()}{self.fresh()} = {self.expr()};")
        if r < 0.5:
            return Stmt(f"{self.var()} = {self.expr()};")
        if r < 0.8:
            recv = self.rng.choice(("this", "log", self.var(), "out"))
            return Stmt(f"{recv}.{camel(self.rng.choice(VERBS), self.rng.choice(NOUNS))}({self.var()});")
        return Stmt(f'log.debug("{self.words(1, 2) if self.short else self.words(2, 5)}");')

    def stmt(self, budget: int) -> tuple[Stmt, int]:
        """A statement using at most `budget` statement records."""
        r = self.rng.random()
        if self.short and r < 0.25:
            r = 1.0  # dense files keep one statement per line
        if budget >= 3 and r < 0.12:
            inner = [self.simple_stmt() for _ in range(min(budget - 1, self.rng.randint(1, 3)))]
            return Stmt(f"if ({self.var()} > {self.rng.randint(0, 64)})", body=inner), 1 + len(inner)
        if budget >= 3 and r < 0.20:
            inner = [self.simple_stmt() for _ in range(min(budget - 1, self.rng.randint(1, 2)))]
            v = self.var()
            return Stmt(f"for (int i = 0; i < {v}.size(); i++)", body=inner), 1 + len(inner)
        if budget >= 4 and r < 0.25:
            return Stmt("try", body=[self.simple_stmt()], tail="catch (IOException e)",
                        tail_body=[Stmt(f'throw new IllegalStateException("{self.words(2, 4)}", e);')]), 4
        return self.simple_stmt(), 1

    def body(self, n_statements: int, comment_every: int = 0) -> list[Stmt]:
        out: list[Stmt] = []
        left = n_statements
        while left > 0:
            s, used = self.stmt(left)
            out.append(s)
            left -= used
        if comment_every:
            for idx in range(0, len(out), comment_every):
                out[idx].comment = self.words(1, 3) if self.short else self.words(3, 7)
        return out

    def method(self, taken: set[str], n_statements: int, comment_every: int = 0) -> Method:
        while True:
            name = camel(self.rng.choice(VERBS), self.rng.choice(NOUNS), self.rng.choice(NOUNS))
            if name not in taken:
                break
        taken.add(name)
        params = [(self.rng.choice(TYPES), camel(self.rng.choice(NOUNS), "arg", str(k)))
                  for k in range(self.rng.randint(0, 3))]
        rtype = self.rng.choice(RETURN_TYPES)
        body = self.body(n_statements, comment_every)
        if rtype != "void":
            body.append(Stmt(f"return {self.var()};"))
        annotations = [self.rng.choice(METHOD_ANNOTATIONS)] if self.rng.random() < 0.15 else []
        throws = ["IOException"] if self.rng.random() < 0.1 else []
        return Method(
            name=name, return_type=rtype, params=params,
            modifiers=[self.rng.choice(("public", "private", "protected", "public"))],
            annotations=annotations, body=body, throws=throws,
            doc=f"{(self.words(2, 5) if self.short else self.words(4, 12)).capitalize()}.",
        )

    def fields(self, n: int) -> list[Field]:
        out: list[Field] = []
        seen: set[str] = set()
        while len(out) < n:
            name = camel(self.rng.choice(NOUNS), self.rng.choice(NOUNS))
            if name in seen:
                continue
            seen.add(name)
            out.append(self.field(name))
        return out

    def field(self, name: str) -> Field:
        t = self.rng.choice(TYPES[:5])
        init = {"int": str(self.rng.randint(0, 512)), "long": f"{self.rng.randint(0, 99)}L",
                "boolean": "false", "String": f'"{self.rng.choice(NOUNS)}"', "double": "0.5"}[t]
        mods = self.rng.choice((["private"], ["private", "final"], ["private", "static", "final"]))
        comment = self.words(3, 6) if self.rng.random() < 0.3 else None
        return Field(name, t, mods, init if self.rng.random() < 0.6 else None, comment)

    def class_name(self) -> str:
        return pascal(self.rng.choice(NOUNS), self.rng.choice(NOUNS)) + self.rng.choice(SUFFIXES)

    def jclass(self, name: str, n_methods: int, stmts_per_method: int, comment_every: int = 0,
               inner: int = 0) -> JClass:
        taken: set[str] = set()
        methods = [Method(name=name, return_type=None, params=[("int", "capacity")], modifiers=["public"],
                          annotations=[], doc=None, body=[Stmt("this.capacity = capacity;")])]
        for _ in range(n_methods):
            n = max(1, stmts_per_method + self.rng.randint(-2, 2)) if stmts_per_method > 3 else stmts_per_method
            methods.append(self.method(taken, n, comment_every))
        fields = [Field("capacity", "int", ["private"], None)] + self.fields(self.rng.randint(1, 5))
        inners = []
        for k in range(inner):
            iname = pascal(self.rng.choice(NOUNS), "Helper", str(k))
            inners.append(JClass(iname, self.fields(1), [self.method(set(), 3)], []))
        return JClass(name, fields, methods, inners, doc=f"{self.words(5, 14).capitalize()}.")

    def jfile(self, n_methods: int, stmts_per_method: int, comment_every: int = 0,
              inner: int = 0, name: str | None = None) -> JFile:
        imports = sorted(self.rng.sample(IMPORTS, self.rng.randint(2, 6)))
        if "java.io.IOException" not in imports:
            imports.append("java.io.IOException")
        cls = self.jclass(name or self.class_name(), n_methods, stmts_per_method, comment_every, inner)
        return JFile(self.rng.choice(PACKAGES), imports, [cls], license=self.rng.random() < 0.5)


def sized_file(gen: JavaGen, lines: int, name: str | None = None) -> JFile:
    """A one-class file of roughly `lines` rendered lines."""
    if lines < 40:
        stmts = 3
    elif lines < 400:
        stmts = 6
    elif lines < 2000:
        stmts = 12
    else:
        stmts = 24
    n_methods = max(2, lines // (stmts + 5))
    inner = 1 if lines >= 300 else 0
    return gen.jfile(n_methods, stmts, comment_every=4, inner=inner, name=name)


def roadmap_file(gen: JavaGen) -> JFile:
    """The ROADMAP's large file: 200 methods of about 30 statements each,
    about 200 KB, 6.8k lines and 1.65k comments."""
    gen.short = True
    try:
        jfile = gen.jfile(200, 30, comment_every=4, inner=0, name="LargeGeneratedService")
    finally:
        gen.short = False
    jfile.license = True
    return jfile


# ---------------------------------------------------------------------------
# Planted edits
# ---------------------------------------------------------------------------


@dataclass
class Planted:
    """What an edit of one file planted, in the template's own terms."""
    added: list[tuple[str, str]] = field(default_factory=list)  # (kind, name)
    removed: list[tuple[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)  # words for the commit message


def _all_names(jfile: JFile) -> set[str]:
    return {m.name for c in jfile.all_classes() for m in c.methods}


def edit_file(gen: JavaGen, old: JFile, n_edits: int) -> tuple[JFile, Planted]:
    """Apply `n_edits` small edits to a copy of `old`."""
    new = copy.deepcopy(old)
    planted = Planted()
    rng = gen.rng
    kinds = ("add_method", "remove_method", "statements", "statements", "add_field",
             "remove_field", "comment", "annotation")
    old_names = _all_names(old)
    for _ in range(n_edits):
        cls = rng.choice(new.all_classes())
        kind = rng.choice(kinds)
        plain = [m for m in cls.methods if m.return_type is not None]
        # only a method of the old version can be removed
        removable = [m for m in plain if m.name in old_names]
        if kind == "add_method":
            m = gen.method(old_names | _all_names(new), rng.randint(2, 6))
            cls.methods.insert(rng.randint(0, len(cls.methods)), m)
            planted.added.append(("method", m.name))
            planted.notes.append(f"add {m.name}")
        elif kind == "remove_method" and len(plain) > 2 and removable:
            m = rng.choice(removable)
            cls.methods.remove(m)
            planted.removed.append(("method", m.name))
            planted.notes.append(f"remove {m.name}")
        elif kind == "add_field":
            names = {f.name for f in cls.fields}
            name = camel(rng.choice(NOUNS), rng.choice(NOUNS), "v" + str(gen.fresh()))
            if name not in names:
                cls.fields.append(gen.field(name))
                planted.notes.append(f"add field {name}")
        elif kind == "remove_field" and len(cls.fields) > 1:
            f = rng.choice(cls.fields[1:])
            cls.fields.remove(f)
            planted.notes.append(f"drop unused {f.name}")
        elif kind == "comment" and plain:
            m = rng.choice(plain)
            m.body.insert(rng.randint(0, len(m.body)), Stmt(f"{gen.var()}.{camel('check', rng.choice(NOUNS))}();",
                                                            comment=gen.words(4, 9)))
            planted.notes.append(f"document {m.name}")
        elif kind == "annotation" and plain:
            m = rng.choice(plain)
            free = [a for a in METHOD_ANNOTATIONS if a not in m.annotations]
            if free:
                m.annotations.append(rng.choice(free))
                planted.notes.append(f"annotate {m.name}")
        elif plain:
            m = rng.choice(plain)
            simple = [k for k, s in enumerate(m.body) if s.body is None and not s.text.startswith("return")]
            for k in rng.sample(simple, min(len(simple), rng.randint(1, 3))):
                m.body[k] = gen.simple_stmt()
            if rng.random() < 0.5:
                m.body.insert(rng.randint(0, len(m.body)), gen.simple_stmt())
            planted.notes.append(f"fix {rng.choice(NOUNS)} handling in {m.name}")
    return new, planted


# ---------------------------------------------------------------------------
# Rewrite of one long method
# ---------------------------------------------------------------------------


@dataclass
class Rewrite:
    old: JFile
    new: JFile
    method: str
    old_statements: list[str]  # statement texts of the long method, old side
    new_statements: list[str]
    changed: list[str]  # old texts the generator deleted or modified


def _unique_stmt(gen: JavaGen, k: int) -> str:
    """A statement whose text is unique within the method (it names v<k>)."""
    rng = gen.rng
    r = rng.random()
    v = f"v{k}"
    if r < 0.35:
        return f"long {v} = {gen.var()} * {rng.randint(2, 97)} + {rng.randint(0, 999)};"
    if r < 0.6:
        return f"{gen.var()} = combine({v}, {gen.var()}, {rng.randint(1, 64)});"
    if r < 0.85:
        return f"{gen.var()}.{camel(rng.choice(VERBS), rng.choice(NOUNS))}({v}, {rng.randint(0, 9)});"
    return f'log.trace("{v} {gen.words(2, 4)}");'


def rewrite_file(gen: JavaGen, n_statements: int) -> Rewrite:
    """An ordinary file plus one long method that the new version rewrites:
    about 12% of its statements modified, a block of 3% reordered, 4%
    inserted and 4% deleted."""
    rng = gen.rng
    base = gen.jfile(8, 6, comment_every=4)
    cls = base.classes[0]
    name = camel("process", rng.choice(NOUNS), "batch")
    old_stmts = [_unique_stmt(gen, k) for k in range(n_statements)]
    serial = n_statements
    # reorder: one block from the second quarter moves to the last quarter
    block_len = max(3, n_statements * 3 // 100)
    start = rng.randrange(n_statements // 4, n_statements // 2 - block_len)
    block = list(range(start, start + block_len))
    rest = [k for k in range(n_statements) if not start <= k < start + block_len]
    # modify: keep the statement's shape, change one operand and a constant
    new_stmts = list(old_stmts)
    modified = set(rng.sample(rest, n_statements * 12 // 100))
    for k in sorted(modified):
        new_stmts[k] = old_stmts[k].replace(f"v{k}", f"v{k}x", 1).replace(";", " + 1;", 1)
    deleted = set(rng.sample([k for k in rest if k not in modified], n_statements * 4 // 100))
    changed = [old_stmts[k] for k in sorted(modified | deleted)]
    order = [k for k in rest if k not in deleted]
    dest = rng.randint(len(order) * 3 // 4, len(order))
    order[dest:dest] = block
    result = [new_stmts[k] for k in order]
    # insert fresh statements
    for _ in range(n_statements * 4 // 100):
        result.insert(rng.randint(0, len(result)), _unique_stmt(gen, serial))
        serial += 1
    old_m = Method(name=name, return_type="void", params=[("List<Long>", "batch")], modifiers=["public"],
                   annotations=[], doc="Processes one batch of records in order.",
                   body=[Stmt(t) for t in old_stmts])
    new_m = copy.deepcopy(old_m)
    new_m.body = [Stmt(t) for t in result]
    cls.methods.insert(1, old_m)
    new = copy.deepcopy(base)
    new.classes[0].methods[1] = new_m
    return Rewrite(old=base, new=new, method=name, old_statements=old_stmts,
                   new_statements=result, changed=changed)
