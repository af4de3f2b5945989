"""The parser's output, pinned byte for byte.

``cli_golden.json`` holds the ``--help`` text and three usage errors as
they were before the parser stopped importing the subsystems whose names
it offers (``repro.names``).  A scenario or spec name that drifts from
the parser changes one of these outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import pytest

from repro.cli import main

with open(os.path.join(os.path.dirname(__file__), "cli_golden.json"),
          encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN, ids=[" ".join(c["argv"]) for c in GOLDEN])
def test_parser_output_is_pinned(case, monkeypatch):
    # argparse wraps to the terminal width; pin the width it was taken at.
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(case["argv"])
        except SystemExit as exc:
            code = exc.code
    assert (code, out.getvalue(), err.getvalue()) == (
        case["exit"], case["stdout"], case["stderr"]
    )
