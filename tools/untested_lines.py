"""Pytest plugin: list the statements in resotrim's function bodies that no test runs.

    PYTHONPATH=src:tools python -m pytest -q -p untested_lines

Standard library only (``sys.settrace``), so the run takes about twice as long.
Docstrings and the statements of module and class bodies are left out.
Hypothesis replaces the tracer while it runs an example, so the tracer is
installed again before each test, and a statement reached only inside an
example may still be listed: treat the list as an upper bound.
"""

import ast
import os
import sys

SRC = os.path.realpath(os.path.join(os.path.dirname(__file__), os.pardir, "src", "resotrim"))
_ran, _ours = set(), {}


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _ours:
        _ours[name] = os.path.realpath(name).startswith(SRC + os.sep)
    return _lines if _ours[name] else None


def _statements(path):
    """{line: lines that run with it} of each statement in a function body: a
    compound statement's header, any other statement whole; ``try`` runs nothing."""
    tree = ast.parse(open(path, encoding="utf-8").read())
    funcs = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    docs = {f.body[0].lineno for f in funcs if ast.get_docstring(f) is not None}
    spans = {}
    for node in (n for f in funcs for stmt in f.body for n in ast.walk(stmt)):
        if isinstance(node, ast.stmt) and not isinstance(node, ast.Try) and node.lineno not in docs:
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
            spans[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return spans


sys.settrace(_calls)  # from the start, so the calls made while importing resotrim count


def pytest_runtest_setup(item):
    sys.settrace(_calls)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    ran = {(os.path.realpath(name), line) for name, line in _ran}
    terminalreporter.section("statements in function bodies that no test ran")
    for name in sorted(n for n in os.listdir(SRC) if n.endswith(".py")):
        path = os.path.join(SRC, name)
        missed = [line for line, span in sorted(_statements(path).items())
                  if not any((path, n) in ran for n in span)]
        terminalreporter.write_line(f"{name}: {', '.join(map(str, missed)) or '-'}")
