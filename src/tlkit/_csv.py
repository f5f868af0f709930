"""Sparse square matrices as CSV text, the form in which ``tlkit repr``
and ``tlkit bracket --matrix`` print them.

Each of those runners imports this module when it writes, so no other
route compiles it.
"""

from __future__ import annotations

from typing import Iterable, Mapping


def sparse_csv(size: int, blocks: Iterable[tuple[str, Iterable[Mapping[int, str]]]]) -> str:
    """Square CSV blocks of ``size`` columns, each after its header line:
    a row has the text ``row[i]`` in column i, listed in ascending i, and
    0 in every other cell.  The text is one join of the headers, the
    listed texts, separators and shared zero runs, so no cell list and no
    row string is made."""
    runs: dict[int, str] = {}  # "0," * k, made once per run length k
    ends: dict[int, str] = {}  # the k zeros that end a row
    last = size - 1
    out: list[str] = []
    for header, rows in blocks:
        out.append(header + "\n")
        for row in rows:
            at = 0
            for i, text in row.items():
                if i > at:
                    k = i - at
                    out.append(runs.get(k) or runs.setdefault(k, "0," * k))
                out.append(text)
                out.append("," if i < last else "\n")
                at = i + 1
            if at < size:
                k = size - at
                out.append(ends.get(k) or ends.setdefault(k, "0," * (k - 1) + "0\n"))
    return "".join(out)
