"""Shared helpers for the benchmark/reproduction harness.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation (see DESIGN.md's per-experiment index) and also times its core
algorithm with pytest-benchmark.  The reproduction tables are printed
through the ``report`` fixture so they appear in the terminal (and hence in
``bench_output.txt``) even under pytest's output capture, and are archived
under ``results/``.  A module's results file is rewritten the first time
it reports in a session, so running one module leaves the others' files
alone.  Performance is measured by ``python3 bench/run.py`` (bench/README.md).
"""

from __future__ import annotations

import pathlib
from typing import Iterable, List, Sequence, Set

import pytest

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


def format_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    str_rows: List[List[str]] = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    out = [f"\n== {title} ==", " | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        out.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


class Reporter:
    """Prints reproduction tables to the live terminal and archives them."""

    def __init__(
        self, capsys: pytest.CaptureFixture, slug: str, started: Set[str]
    ) -> None:
        self._capsys = capsys
        self._slug = slug
        self._started = started  # slugs whose file this session truncated
        RESULTS_DIR.mkdir(exist_ok=True)

    def table(self, title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> None:
        text = format_table(title, headers, list(rows))
        self.text(text)

    def text(self, text: str) -> None:
        with self._capsys.disabled():
            print(text)
        path = RESULTS_DIR / f"{self._slug}.txt"
        mode = "a" if self._slug in self._started else "w"
        self._started.add(self._slug)
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text + "\n")


@pytest.fixture(scope="session")
def _started_slugs() -> Set[str]:
    return set()


@pytest.fixture
def report(
    capsys: pytest.CaptureFixture,
    request: pytest.FixtureRequest,
    _started_slugs: Set[str],
) -> Reporter:
    slug = pathlib.Path(request.node.fspath).stem
    return Reporter(capsys, slug, _started_slugs)
