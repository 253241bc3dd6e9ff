"""README.md as checked facts: its tables, lists and examples against the code.

Each table is compared with what it describes: the objects and routes with the route
table, the suites with a default run, the report keys with to_json, the exit codes with
cli.main, the cached tables with the functools.cache functions under src/eiskern.  Each
CLI and library example runs, and the value its comment shows is compared to 1e-12.
Every other number in README.md outside $...$ mathematics is one of the phrases that
_facts builds from the code's own values, so a number that the code no longer backs
fails here."""
from __future__ import annotations

import argparse
import ast
import importlib
import math
import pathlib
import re
import shlex

import mpmath
import pytest

import eiskern
from eiskern import errors, routes
from eiskern.cli import _PARSERS, _parse_complex, build_parser, main
from eiskern.errors import EiskernError, Evaluation
from eiskern.routes import ROUTES
from eiskern.suites import GRID_NODES, SUITES, GridSpec, SuiteConfig

import test_controls_and_engines as controls
from test_cli import _IN_DOMAIN

TEXT = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PACKAGE = pathlib.Path(eiskern.__file__).parent

# the values that README comments show in closed form
_SYMBOLS = {
    "π²": math.pi ** 2,
    "2π²": 2 * math.pi ** 2,
    "2i log 2": 2j * math.log(2),
    "log 2/π": math.log(2) / math.pi,
    "9ζ(3)/(8π³)": 9 * float(mpmath.zeta(3)) / (8 * math.pi ** 3),
    "2 log 2 − 1": 2 * math.log(2) - 1,
}


def _section(title: str) -> str:
    """The text under the heading `title`, up to the next heading of its level or above."""
    out, level, fenced = [], None, False
    for line in TEXT.splitlines():
        fenced ^= line.startswith("```")
        heading = None if fenced else re.match(r"(#+) (.*)", line)
        if heading and level is not None and len(heading[1]) <= level:
            break
        if level is not None:
            out.append(line)
        if heading and heading[2] == title:
            level = len(heading[1])
    assert level is not None, f"README.md has no section {title!r}"
    return "\n".join(out)


def _table(text: str, *header: str) -> list[list[str]]:
    """The body rows of the markdown table in text with this header; a cell that is one
    code span loses its backticks."""
    tables, current = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("|"):
            cells = (c.strip() for c in line.strip().strip("|").split("|"))
            current.append([c[1:-1] if re.fullmatch(r"`[^`]*`", c) else c for c in cells])
        elif current:
            tables.append(current)
            current = []
    found = [t[2:] for t in tables if tuple(t[0]) == header]
    assert len(found) == 1, f"README.md needs one table headed {header}"
    return found[0]


def _ticked(text: str) -> list[str]:
    return re.findall(r"`([^`]+)`", text)


def _fence_lines(lang: str) -> list[str]:
    return [line for block in re.findall(rf"^```{lang}\n(.*?)^```", TEXT, re.M | re.S)
            for line in block.splitlines()]


def _value(comment: str) -> complex:
    return _SYMBOLS[comment] if comment in _SYMBOLS else _parse_complex(comment)


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= 1e-12 * abs(want)


def _subparser(command: str) -> argparse.ArgumentParser:
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices[command]


def _g(x: float) -> str:
    return f"{x:g}".replace("e-0", "e-")


def _facts() -> list[str]:
    """The phrases of README.md that hold a number, each built from the value in the code."""
    stamp = routes._wrap(0.5, "").err_estimate
    assert routes._wrap(-3.0, "").err_estimate == 3.0 * stamp  # 8e-16 * max(1, |v|)
    verify = _subparser("verify")
    assert verify.get_default("seed") == SuiteConfig().seed
    return [
        verify.epilog,
        f"`{_g(stamp)} * max(1, |v|)`",
        f"`{','.join(_g(v) for v in GridSpec())}`",
        f"`{SuiteConfig().seed}`",
        f"at most {GRID_NODES} nodes",
        f"1 + {_g(controls.DELTA)}",
    ]


def _words(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# objects and routes

def test_objects_are_the_route_table_objects():
    rows = _table(_section("Objects"), "object", "arguments", "value")
    assert [(obj, args) for obj, args, _ in rows] == [(obj, p) for obj, (p, _) in ROUTES.items()]


def test_routes_and_engines_are_the_route_table():
    rows = _table(_section("Routes"), "object", "route", "engines", "claim")
    assert [(obj, route, set(engines.split())) for obj, route, engines, _ in rows] == [
        (obj, "(default)" if name is None else name, set(route.engines))
        for obj, (_, table) in ROUTES.items() for name, route in table.items()]
    text = _section("Routes").split("\n\n")[0]
    named = _ticked(text[text.index("runs itself:"):])
    assert set(named) == {e for _, t in ROUTES.values() for r in t.values() for e in r.engines}


def _claim(obj: str, name: str | None, monkeypatch) -> str:
    # own: an Evaluation that no _wrap stamped; stamp: a bare value, which eval stamps, or a
    # stamped one; none: a result that eval prints without a claim
    stamped = []
    wrap = routes._wrap
    monkeypatch.setattr(routes, "_wrap", lambda v, label: stamped.append(label) or wrap(v, label))
    params, table = ROUTES[obj]
    kinds = (p.split(":")[1] for p in params.split())
    value = table[name].run(*(_PARSERS[k](a) for k, a in zip(kinds, _IN_DOMAIN[obj].split())))
    monkeypatch.undo()
    if isinstance(value, Evaluation):
        return "stamp" if stamped else "own"
    return "stamp" if isinstance(value, (int, float, complex)) else "none"


def test_claim_marks_say_which_routes_report_their_own_error(monkeypatch):
    rows = _table(_section("Routes"), "object", "route", "engines", "claim")
    marks = {(obj, None if route == "(default)" else route): claim
             for obj, route, _, claim in rows}
    assert marks == {(obj, name): _claim(obj, name, monkeypatch)
                     for obj, (_, table) in ROUTES.items() for name in table}


# ---------------------------------------------------------------------------
# the CLI

def test_cli_examples_exit_and_print_what_their_comments_show(capsys, monkeypatch, tmp_path):
    # a comment is `exit N`, or the value that eval prints, with its claim after a comma
    monkeypatch.chdir(tmp_path)  # where --out writes
    examples = [line for line in _fence_lines("sh") if line.startswith("eiskern ")]
    assert examples
    for line in examples:
        command, _, comment = (part.strip() for part in line.partition("#"))
        code = re.fullmatch(r"exit (\d)", comment)
        rc = main(shlex.split(command)[1:])
        out = capsys.readouterr().out
        assert rc == (int(code[1]) if code else 0), line
        if comment and not code:
            value, _, claim = comment.partition(", err<=")
            printed = re.search(r" = (\S+)  \(route=[^,]*, err<=([^,]*),", out)
            assert printed and _close(_parse_complex(printed[1]), _value(value)), (line, out)
            assert claim in ("", printed[2]), (line, out)


def test_table_and_plotdata_names_are_the_cli_choices():
    text = _words(_section("CLI"))
    tables = re.search(r"`table` writes (.*?) as CSV", text)[1]
    figures = re.search(r"`plotdata` writes the data behind (.*?)\.", text)[1]
    for command, names in (("table", tables), ("plotdata", figures)):
        choices = next(a.choices for a in _subparser(command)._actions if a.choices)
        assert _ticked(names) == list(choices)


def test_exit_codes_are_what_cli_main_returns(capsys):
    rows = _table(_section("Exit status"), "exit", "when", "example")
    assert [int(code) for code, _, _ in rows] == [0, 1, 2]
    for code, _, example in rows:
        rc = main(shlex.split(example)[1:])
        out = capsys.readouterr().out
        assert rc == int(code), example
        assert (out == "") == (rc == 2), example  # a report unless the configuration fails


def test_exit_status_has_one_wording(capsys):
    wording = _words(_subparser("verify").epilog)
    assert wording in _words(_section("Exit status"))
    assert wording in _words(eiskern.cli.__doc__)
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert wording in _words(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# verify

def test_suites_and_their_kinds_are_a_default_run(all_suites):
    rows = _table(_section("Suites"), "suite", "kind", "checks")
    assert [name for name, _, _ in rows] == list(SUITES)
    assert [(name, kind) for name, kind, _ in rows] == [
        (s.name, "report-only" if s.report_only else "gating") for s in all_suites]


def test_policies_are_the_records(all_suites):
    rows = _table(_section("Suites"), "policy", "passes when")
    assert {p for p, _ in rows} == {r.policy for s in all_suites for r in s.records}


def test_report_keys_are_to_json(all_suites):
    rows = _table(_section("Report"), "level", "key", "meaning")
    suite = all_suites[0].to_json()
    record = suite["records"][0]
    assert [k for level, k, _ in rows if level == "suite"] == list(suite)
    assert [k for level, k, _ in rows if level == "record"] == list(record)
    assert {level for level, _, _ in rows} == {"suite", "record"}
    for level, key, meaning in rows:
        if key in ("lhs", "rhs"):
            assert meaning.endswith(" as `{}` and `{}`".format(*record[key])), meaning
    # the fixture runs under SOURCE_DATE_EPOCH, which zeroes wall_time_ms
    assert {s.wall_time_ms for s in all_suites} == {0.0}


def test_guards_name_their_tests_and_pins():
    named = _ticked(_section("Independence guards"))
    tests = [n for n in named if n.startswith("test_")]
    pins = [n for n in named if re.fullmatch(r"[A-Z_]+", n)]
    assert tests and pins
    assert [n for n in tests + pins if not hasattr(controls, n)] == []
    assert all(callable(getattr(controls, n)) for n in tests)


# ---------------------------------------------------------------------------
# the library

def test_library_examples_give_what_their_comments_show():
    examples = [line for line in _fence_lines("python") if line.startswith("ek.")]
    assert examples
    for line in examples:
        call, _, comment = (part.strip() for part in line.partition("#"))
        value = eval(call, {"ek": eiskern})  # README's own example
        value = value.value if isinstance(value, Evaluation) else value
        assert _close(complex(value), _value(comment)), (line, value)


def test_evaluation_fields_and_error_types_match_the_code():
    text = _words(_section("Library"))
    fields = re.search(r"named tuple of (.*?)\.", text)[1]
    assert tuple(_ticked(fields)) == Evaluation._fields
    types = re.search(r"`EiskernError` types (.*?), with a message", text)[1]
    assert set(_ticked(types)) == {
        c.__name__ for c in vars(errors).values()
        if isinstance(c, type) and issubclass(c, EiskernError) and c is not EiskernError}


def _cached_functions() -> set:
    # every function under src/eiskern decorated with functools.cache or lru_cache
    def cached(d: ast.expr) -> bool:
        d = d.func if isinstance(d, ast.Call) else d
        return getattr(d, "attr", getattr(d, "id", None)) in ("cache", "lru_cache")

    return {f"{path.stem}.{node.name}" for path in PACKAGE.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(map(cached, node.decorator_list))}


def test_cached_tables_are_the_functools_caches():
    listed = re.findall(r"^- `([\w.]+)`:", _section("Library"), re.M)
    assert len(listed) == len(set(listed))
    assert set(listed) == _cached_functions()


def test_named_code_exists():
    # each `module.name` of the package that README names, suites aside
    missing = []
    for name in set(_ticked(TEXT)):
        parts = re.fullmatch(r"(?:eiskern\.)?([a-z_]+)((?:\.\w+)+)", name)
        if not parts or name in SUITES or not (PACKAGE / f"{parts[1]}.py").exists():
            continue
        obj = importlib.import_module(f"eiskern.{parts[1]}")
        for attr in parts[2].split(".")[1:]:
            obj = getattr(obj, attr, None)
        missing += [name] if obj is None else []
    assert missing == []


# ---------------------------------------------------------------------------

def test_every_number_outside_mathematics_is_read():
    # the examples and exit rows run above; each other number is one of the phrases of
    # _facts, and a number inside $...$ is part of a formula
    kept = [line for line in TEXT.splitlines()
            if not re.match(r"eiskern |ek\.|\| \d \|", line)]
    text = _words("\n".join(kept))
    for phrase in _facts():
        assert _words(phrase) in text, phrase
        text = text.replace(_words(phrase), " ")
    text = re.sub(r"\$[^$]*\$", " ", text)
    assert re.findall(r"(?<![A-Za-z_])\d[\w.,+-]*", text) == []
