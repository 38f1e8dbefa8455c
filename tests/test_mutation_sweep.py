"""Seeded line-level mutations of every shipped file and golden input.

Each mutant goes through ``lieb check``, ``lieb solve --problem`` and ``lieb
construct`` in process.  A malformed document must exit 2 with a message, so
every run returns 0, 1 or 2: none raises, and none exits 3, which is kept for
an invariant the program itself violates.
"""

from __future__ import annotations

import random
from importlib import resources
from pathlib import Path

from lieb.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE_ERROR, main
from lieb.solver import KINDS

GOLDEN = Path(__file__).parent / "golden"

SOURCES = sorted(
    [p.read_text(encoding="utf-8") for p in resources.files("lieb.data").iterdir()
     if p.name.endswith(".lieb")]
    + [p.read_text(encoding="utf-8") for p in sorted(GOLDEN.glob("*/parametric.lieb"))])

# statements a mutation may insert: among them a repeated basis label, and a
# coalgebra with a skew form on another space, which the co-CYBE slice reads
FRAGMENTS = [
    "space D : a a",
    "space D : a b a*",
    "space CA : p q\nspace CB : s t u\ncoalgebra CC on CA {\n  delta(p) = p@q - q@p\n}\n"
    "form CW on CB skew {\n  (s, t) = 1\n}",
    "params k k1 k2 k3",
    "assume k",
    "assume 0",
    "check lie-algebra",
    "construct dualize L as LD",
    "}",
    "{",
]


def _mutate(rng: random.Random, lines: list[str]) -> list[str]:
    lines = list(lines)
    at = rng.randrange(len(lines) + 1)
    op = rng.randrange(6)
    if op == 0 and at < len(lines):  # delete a line
        del lines[at]
    elif op == 1 and at < len(lines):  # duplicate a line
        lines.insert(at, lines[at])
    elif op == 2 and at < len(lines):  # swap two lines
        other = rng.randrange(len(lines))
        lines[at], lines[other] = lines[other], lines[at]
    elif op == 3 and at < len(lines):  # cut a line short
        lines[at] = lines[at][:rng.randrange(len(lines[at]) + 1)]
    elif op == 4:  # a line of another document
        lines.insert(at, rng.choice(rng.choice(SOURCES).splitlines()))
    else:  # a fragment, between two statements
        starts = [i for i, line in enumerate(lines) if not line.startswith((" ", "}"))]
        lines.insert(rng.choice(starts + [len(lines)]), rng.choice(FRAGMENTS))
    return lines


def test_no_mutated_document_raises_or_exits_3(tmp_path, capsys):
    rng = random.Random(20261020)
    path, out = tmp_path / "mutant.lieb", tmp_path / "out.lieb"
    escaped = []
    for _ in range(300):
        lines = rng.choice(SOURCES).splitlines()
        for _ in range(rng.randint(1, 3)):
            lines = _mutate(rng, lines)
        text = "\n".join(lines) + "\n"
        path.write_text(text, encoding="utf-8")
        op = next((line.split()[-1] for line in lines if line.startswith("construct ")), "none")
        for argv in (["check", str(path)],
                     *(["solve", str(path), "--problem", problem] for problem in KINDS),
                     ["construct", str(path), "--op", op, "--out", str(out)]):
            try:
                code = main(argv)
            except Exception as exc:  # an escape of any kind is recorded
                code = f"{type(exc).__name__}: {exc}"
            if code not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_PARSE_ERROR):
                escaped.append((" ".join(argv[:1] + argv[2:3]), code, text))
        capsys.readouterr()
    assert not escaped, escaped[:3]
