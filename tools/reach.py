"""List the definitions under src/ that no byte-matrix command calls.

    python3 tools/reach.py

Runs every command of ``byte_matrix.commands()`` through
``chebribbon.cli.run`` in-process, with ``--out`` to a file of a temporary
directory, under a ``sys.settrace`` hook that records each function of
``src/chebribbon`` entered.  A definition is every ``def`` of a module, a
method or a nested function, counted from its first decorator to its last
line.  Prints each definition that no command calls, with its line count,
then how many were reached and the lines the others span.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "chebribbon"


def definitions():
    """{(file, first line): (qualified name, line count)} of every def
    under PACKAGE; the first line is the one a code object reports, that
    of the first decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in
                                              child.decorator_list])
                name = f"{prefix}.{child.name}"
                found[(str(path), first)] = (name, child.end_lineno - first + 1)
                visit(child, name, path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, path.resolve())
    return found


def main():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tools"))
    import byte_matrix
    from chebribbon import cli

    package = str(PACKAGE.resolve())
    reached = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(package):
            reached.add((code.co_filename, code.co_firstlineno))

    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as work:
        for i, argv in enumerate(byte_matrix.commands()):
            sys.settrace(tracer)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    cli.run(argv + ["--out", str(Path(work) / str(i))])
            except Exception:  # a command that raises still reached code
                pass
            finally:
                sys.settrace(None)
            sink.seek(0)
            sink.truncate()
    found = definitions()
    unreached = sorted((name, lines) for key, (name, lines) in found.items()
                       if key not in reached)
    for name, lines in unreached:
        print(f"{lines:4d}  {name}")
    print(f"{len(found) - len(unreached)} of {len(found)} definitions "
          f"reached; the {len(unreached)} others span "
          f"{sum(lines for _, lines in unreached)} lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
