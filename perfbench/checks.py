"""Output checks for benchmark jobs, independent of the tlkit package.

Fixed-input jobs are compared against sha256 digests of the output at the
seed commit (the CLI output must stay byte-identical).  Seeded jobs are
checked by small reference computations kept here: a strand walk for
diagram composition, a noncrossing-matching enumerator for the canonical
basis, and Laurent polynomials as exponent -> coefficient dicts.

A checker returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from pathlib import Path

#: sha256 of each fixed-input job's output at the seed commit (a63c623),
#: whose CLI output must stay byte-identical.
SEED_DIGESTS = {
    "enumerate-10": "5bcb8e8cae11f2fa4de3be6204c814758f341f25d761cd11190af809d5e7be67",
    "enumerate-11": "661f052f95e2b5e5b7e7163aba1c962dafe151da2e5be7251a284360efd630d2",
    "count-12": "0a41605a475caedaeb80850080dd113f5d39d6bf6124c7c04da72027a52b2c05",
    "table-6": "ae223ab2dbccc2f19b1baff1b31f5ec862c78d16f3d5f564efb817d5483a4b80",
    "table-7": "4799446bc646193abfd34e8e2a2a01a54af9735d5a56801235e4a8731538ae44",
    "verify-6-tl": "145f552e0b1b1fffcddfe18ef4f7f03d51e3bc0677c585b155c17f2c3fe6c803",
    "verify-5-artin": "cd0eb93a4bb060e9bd6e09ff4eace06d76c204fd4465932faf5886f3a643f1ea",
    "repr-7": "fbc839b09556c4a3d11ddaa4c63926bd44486931ab2eaafdd32f6bab422d50ae",
}

# --- diagrams --------------------------------------------------------------


def _node(position: int, n: int) -> int:
    """Node at a circle position: bottom row left to right, then top row
    right to left."""
    return position if position <= n else 3 * n + 1 - position


def identity_pairing(n: int) -> tuple[int, ...]:
    return tuple(range(n + 1, 2 * n + 1)) + tuple(range(1, n + 1))


def random_pairing(rng: random.Random, n: int) -> tuple[int, ...]:
    """A uniformly random noncrossing perfect matching of 2n nodes: a
    shuffled bracket sequence rotated into a Dyck word (cycle lemma), its
    matched brackets read as chords around the circle."""
    steps = [1] * n + [-1] * (n + 1)
    rng.shuffle(steps)
    height, low, start = 0, 0, 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, start = height, i + 1
    dyck = (steps[start:] + steps[:start])[:-1]
    pairing = [0] * (2 * n)
    open_positions = []
    for position, s in enumerate(dyck, start=1):
        if s == 1:
            open_positions.append(position)
        else:
            a, b = _node(open_positions.pop(), n), _node(position, n)
            pairing[a - 1], pairing[b - 1] = b, a
    return tuple(pairing)


def noncrossing_pairings(n: int) -> list[tuple[int, ...]]:
    """All noncrossing perfect matchings of 2n nodes as partner tuples, in
    lexicographic (canonical) order."""

    def matchings(positions):
        if not positions:
            yield []
            return
        first = positions[0]
        for k in range(1, len(positions), 2):
            for inside in matchings(positions[1:k]):
                for outside in matchings(positions[k + 1 :]):
                    yield [(first, positions[k])] + inside + outside

    out = []
    for chords in matchings(list(range(1, 2 * n + 1))):
        pairing = [0] * (2 * n)
        for p, q in chords:
            a, b = _node(p, n), _node(q, n)
            pairing[a - 1], pairing[b - 1] = b, a
        out.append(tuple(pairing))
    return sorted(out)


def compose_walk(bottom, top, n: int) -> tuple[tuple[int, ...], int]:
    """Stack ``top`` on ``bottom``; returns the product's partner tuple and
    its number of closed loops.  Each strand is followed through the
    middle row, alternating between the two factors; middle nodes left
    unvisited lie on closed loops."""
    visited = [False] * (n + 1)
    product = [0] * (2 * n)

    def walk(start: int) -> int:
        # Product node 1..n starts in the bottom factor; n+1..2n in the top.
        in_bottom = start <= n
        node = bottom[start - 1] if in_bottom else top[start - 1]
        while True:
            if in_bottom:
                if node <= n:
                    return node
                node -= n  # the bottom factor's top row is the middle row
                visited[node] = True
                node, in_bottom = top[node - 1], False
            else:
                if node > n:
                    return node
                visited[node] = True
                node, in_bottom = bottom[node + n - 1], True

    for start in range(1, 2 * n + 1):
        if not product[start - 1]:
            end = walk(start)
            product[start - 1], product[end - 1] = end, start
    loops = 0
    for m in range(1, n + 1):
        if not visited[m]:
            loops += 1
            node = m
            while not visited[node]:
                visited[node] = True
                node = top[node - 1]
                visited[node] = True
                node = bottom[node + n - 1] - n
    return tuple(product), loops


def diagram_line(pairing, m: int) -> str:
    n = len(pairing) // 2
    pairs = "".join(f"({a},{b})" for a, b in enumerate(pairing, start=1) if a < b)
    return f"TL {n} m={m} {pairs}"


_LINE_RE = re.compile(r"^TL (\d+) m=(\d+) ((?:\(\d+,\d+\))+)$")
_PAIR_RE = re.compile(r"\((\d+),(\d+)\)")


def parse_line(line: str) -> tuple[tuple[int, ...], int]:
    match = _LINE_RE.match(line)
    if not match:
        raise ValueError(f"malformed diagram line {line!r}")
    n, m = int(match.group(1)), int(match.group(2))
    pairing = [0] * (2 * n)
    for a, b in _PAIR_RE.findall(match.group(3)):
        a, b = int(a), int(b)
        if not (1 <= a <= 2 * n and 1 <= b <= 2 * n) or pairing[a - 1] or pairing[b - 1]:
            raise ValueError(f"bad pair ({a},{b}) in {line!r}")
        pairing[a - 1], pairing[b - 1] = b, a
    return tuple(pairing), m


# --- Laurent polynomials in A ----------------------------------------------

_TERM_RE = re.compile(r"([+-]?)(?:(\d+)\*)?A(?:\^(-?\d+))?|([+-]?)(\d+)")
_LOOP = {2: -1, -2: -1}  # d = -A^2 - A^-2


def parse_poly(text: str) -> dict[int, int]:
    poly: dict[int, int] = {}
    pos = 0
    while pos < len(text):
        match = _TERM_RE.match(text, pos)
        if not match or match.end() == pos or (pos and not match.group(1) and not match.group(4)):
            raise ValueError(f"malformed polynomial {text!r}")
        if match.group(5) is not None:
            exponent, coeff = 0, int(match.group(5))
            sign = match.group(4)
        else:
            exponent = int(match.group(3)) if match.group(3) else 1
            coeff = int(match.group(2)) if match.group(2) else 1
            sign = match.group(1)
        coeff = -coeff if sign == "-" else coeff
        poly[exponent] = poly.get(exponent, 0) + coeff
        pos = match.end()
    return {e: c for e, c in poly.items() if c}


def _poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


# --- checkers --------------------------------------------------------------


def _digest_problems(key: str, data: bytes) -> list[str]:
    got = hashlib.sha256(data).hexdigest()
    return [] if got == SEED_DIGESTS[key] else [f"{key}: sha256 {got[:12]} differs from the seed output"]


def _catalan_problems(n: int, data: bytes) -> list[str]:
    lines = sum(1 for line in data.splitlines() if line.startswith(b"TL "))
    want = math.comb(2 * n, n) // (n + 1)
    return [] if lines == want else [f"{lines} basis lines, expected Catalan({n}) = {want}"]


def check_digest(stdout: bytes, cwd: Path, arg) -> list[str]:
    key, catalan_n = arg
    problems = _digest_problems(key, stdout)
    if catalan_n is not None:
        problems += _catalan_problems(catalan_n, stdout)
    return problems


def check_basis_file(stdout: bytes, cwd: Path, arg) -> list[str]:
    key, n, name = arg
    path = cwd / name
    if stdout:
        return ["--output job wrote to stdout"]
    if not path.is_file():
        return [f"{name} was not written"]
    data = path.read_bytes()
    return _digest_problems(key, data) + _catalan_problems(n, data)


def check_cache(stdout: bytes, cwd: Path, arg) -> list[str]:
    key, n, cache = arg
    problems = _digest_problems(key, stdout) + _catalan_problems(n, stdout)
    stem = cwd / cache / f"basis_v1_dim{n}"
    data_path, hash_path = stem.with_suffix(".tl"), stem.with_suffix(".sha256")
    if not (data_path.is_file() and hash_path.is_file()):
        return problems + ["cache files missing"]
    data = data_path.read_bytes()
    if data != stdout:
        problems.append("cache .tl differs from stdout")
    if hash_path.read_bytes() != hashlib.sha256(data).hexdigest().encode() + b"\n":
        problems.append("cache .sha256 does not match the .tl file")
    return problems


def check_verify(stdout: bytes, cwd: Path, arg) -> list[str]:
    overall = [line for line in stdout.decode(errors="replace").splitlines() if line.startswith("overall:")]
    problems = _digest_problems(arg, stdout)
    if not overall or any(line != "overall: PASS" for line in overall):
        problems.append(f"overall lines {overall}")
    return problems


def check_text(stdout: bytes, cwd: Path, arg) -> list[str]:
    text = stdout.decode(errors="replace")
    return [] if text == arg else [f"expected {arg!r}, got {text[:200]!r}"]


def parse_element(stdout: bytes, word: str, n: int) -> dict[tuple[int, ...], dict[int, int]]:
    lines = stdout.decode().splitlines()
    if not lines or lines[0] != f"# bracket image of {word} on {n} strands, d = -A^2-A^-2":
        raise ValueError("bad element header")
    basis = set(noncrossing_pairings(n))
    terms = {}
    for line in lines[1:]:
        coeff, diagram = line.split("\t")
        pairing, m = parse_line(diagram)
        if m != 0 or pairing not in basis or pairing in terms:
            raise ValueError(f"bad element term {line!r}")
        terms[pairing] = parse_poly(coeff)
    return terms


def parse_matrix(stdout: bytes, word: str, n: int) -> list[list[dict[int, int]]]:
    lines = stdout.decode().splitlines()
    size = len(noncrossing_pairings(n))
    header = f"# bracket image of {word} on {n} strands, {size}x{size}, entries in A"
    if not lines or lines[0] != header:
        raise ValueError("bad matrix header")
    rows = [[parse_poly(cell) for cell in line.split(",")] for line in lines[1:]]
    if len(rows) != size or any(len(row) != size for row in rows):
        raise ValueError("matrix is not Catalan(n) square")
    return rows


def check_element(stdout: bytes, cwd: Path, arg) -> list[str]:
    try:
        parse_element(stdout, arg, 6)
    except ValueError as exc:
        return [str(exc)]
    return []


def check_matrix_against_element(matrix_out: bytes, element_out: bytes, word: str, n: int) -> list[str]:
    """Column j of the matrix image must be the element times basis
    diagram j (the element stacked on top), with each loop worth
    -A^2-A^-2; the identity column is then the element itself."""
    try:
        rows = parse_matrix(matrix_out, word, n)
        terms = parse_element(element_out, word, n)
    except ValueError as exc:
        return [str(exc)]
    basis = noncrossing_pairings(n)
    index = {p: i for i, p in enumerate(basis)}
    loop_powers = [{0: 1}]
    for _ in range(n):
        loop_powers.append(_poly_mul(loop_powers[-1], _LOOP))
    for j, column_diagram in enumerate(basis):
        expected: dict[int, dict[int, int]] = {}
        for diagram, coeff in terms.items():
            product, loops = compose_walk(column_diagram, diagram, n)
            cell = expected.setdefault(index[product], {})
            for e, c in _poly_mul(coeff, loop_powers[loops]).items():
                cell[e] = cell.get(e, 0) + c
        for i in range(len(basis)):
            want = {e: c for e, c in expected.get(i, {}).items() if c}
            if rows[i][j] != want:
                return [f"matrix cell ({i + 1},{j + 1}) differs from the element image"]
    return []


CHECKERS = {
    "digest": check_digest,
    "basis_file": check_basis_file,
    "cache": check_cache,
    "verify": check_verify,
    "text": check_text,
    "element": check_element,
}


def check_all(jobs, stdouts: list[Path], cwd: Path) -> list[list[str]]:
    """Problems per job, given the files holding each job's stdout.  A
    matrix job is checked against the element form of the same word."""
    elements = {job.pair: path for job, path in zip(jobs, stdouts) if job.check == "element"}
    problems = []
    for job, path in zip(jobs, stdouts):
        if job.check != "matrix":
            problems.append(CHECKERS[job.check](path.read_bytes(), cwd, job.arg))
        elif job.pair not in elements:
            problems.append(["the element form of this word did not run"])
        else:
            element_out = elements[job.pair].read_bytes()
            problems.append(check_matrix_against_element(path.read_bytes(), element_out, job.arg, 6))
    return problems
