"""The parser's output, pinned byte for byte.

``cli_golden.json`` holds the top-level ``--help`` text, the ``--help``
of ``table2`` and ``campaign run`` (which offer the fault-scenario and
campaign-spec names from ``repro.names``), and three usage errors.  A
flag, scenario or spec name that drifts from the grammar changes one of
these outputs.
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
