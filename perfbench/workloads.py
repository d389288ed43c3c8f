"""Seeded workloads: each is a list of ``rowfinite`` CLI invocations plus the
spec files they read, and for every invocation its expected exit code and
an independent output check (see ``oracle``).

The main command of each workload runs at three doubling horizons H, 2H and
4H, so the report shows how its cost grows.  Everything random is drawn from
``random.Random(f"{name}:{seed}")``: the same seed gives byte-identical argv
lists and files.

Why these four (each stresses a layer the others leave idle):

``jordan``     example2 in Gauss-Jordan mode with a pinned zero row; the
               transform rows Q hold ~96% of the nonzeros, so Q upkeep and
               JSON formatting dominate while expression evaluation idles.
``deficient``  example3: dense rows, ~25% zero rows and tiny coefficients,
               so expression evaluation is a large share of elimination; the
               only workload on the solver's consistency and error path.
``regular``    a certified lower-echelon N=3 equation with large coefficient
               growth; the only user of the Hessenberg closed form, which
               must print the same terms as the elimination path.
``explicit``   random sparse matrices whose rows arrive in arbitrary length
               order; the only workload where cross-clearing and placement
               shift rows.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import oracle

Check = Callable[[str, str], Optional[str]]

NAMES = ("jordan", "deficient", "regular", "explicit")
MAIN_COMMAND = {"jordan": "reduce", "deficient": "fundamental",
                "regular": "hess", "explicit": "reduce"}
COMMANDS = ("reduce", "solve", "fundamental", "hess", "verify")
DEFAULT_H = {"jordan": 60, "deficient": 48, "regular": 32, "explicit": 100}
SCALES = (("H", 1), ("2H", 2), ("4H", 4))


@dataclass(frozen=True)
class Op:
    label: str
    command: str
    argv: Tuple[str, ...]
    expect_exit: int
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    ops: Tuple[Op, ...]
    warmup: Op              # the main command on other, smaller inputs
    files: Dict[str, str]   # path -> contents, written before the first op

    @property
    def main(self) -> str:
        return MAIN_COMMAND[self.name]

    def write_files(self) -> None:
        for path, text in self.files.items():
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def _csv(values: Sequence[Fraction]) -> str:
    return ",".join(str(v) for v in values)


def _free_arg(free: Dict[int, Fraction]) -> str:
    return ",".join(f"{c}={v}" for c, v in sorted(free.items()))


def _dot_all(row_fn, k: int, y: Sequence[Fraction]) -> List[Fraction]:
    return [oracle.dot(row_fn(n), y) for n in range(k)]


# --- checks -------------------------------------------------------------------


def expect_reduction(row_fn, k: int) -> Check:
    return lambda out, err: oracle.check_reduction(out, row_fn, k)


def expect_solution(row_fn, k: int, terms: int, g: Optional[Sequence[Fraction]],
                    fixed: Dict[int, Fraction]) -> Check:
    """csv solution prefix: ``terms`` values, the fixed free constants in
    place, and exact residuals on every row it covers."""
    def check(out: str, err: str) -> Optional[str]:
        y = oracle.parse_values(out)
        if len(y) != terms:
            return f"expected {terms} terms, got {len(y)}"
        for col, value in fixed.items():
            if y[col] != value:
                return f"free constant at column {col} is {y[col]}, not {value}"
        return oracle.residual_error(row_fn, k, y, g)
    return check


def expect_fundamental(row_fn, k: int, terms: int) -> Check:
    """json fundamental set: each sequence is 1 at its own column s and a
    homogeneous solution on every row it covers."""
    def check(out: str, err: str) -> Optional[str]:
        payload, error = oracle.parse_json(out)
        if error:
            return error
        seqs = payload["sequences"]
        if not seqs:
            return "no fundamental sequences"
        for seq in seqs:
            y = [Fraction(t["value"]) for t in seq["terms"]]
            if len(y) != terms or y[seq["s"]] != 1:
                return f"sequence {seq['s']} has the wrong shape"
            error = oracle.residual_error(row_fn, k, y, None)
            if error:
                return f"sequence {seq['s']}: {error}"
        return None
    return check


def expect_regular(init: Sequence[Fraction], g: Sequence[Fraction],
                   with_init: bool) -> Check:
    """csv terms of the unique regular-order solution, computed here by the
    forward recurrence; ``with_init`` when the output starts at y_0."""
    order = oracle.REGULAR_ORDER

    def check(out: str, err: str) -> Optional[str]:
        y = list(init)
        for n, g_n in enumerate(g):
            row = oracle.regular_row(n)
            rest = sum((v * y[c] for c, v in row.items() if c < n + order), Fraction(0))
            y.append((g_n - rest) / row[n + order])
        want = y if with_init else y[order:]
        got = oracle.parse_values(out)
        if got != want:
            first = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                         min(len(got), len(want)))
            return f"term {first} differs from the recurrence"
        return None
    return check


def expect_verify(seed: int) -> Check:
    def check(out: str, err: str) -> Optional[str]:
        lines = out.splitlines()
        if not lines or lines[0] != f"seed {seed}":
            return "verify did not echo its seed"
        if len(lines) < 4 or not all(line.startswith("PASS ") for line in lines[1:]):
            return f"verify reported {lines[1:]}"
        return None
    return check


def expect_inconsistent(out: str, err: str) -> Optional[str]:
    if out or "inconsistent" not in err:
        return "inconsistent forcing was not reported as such"
    return None


# --- workloads ----------------------------------------------------------------


def _jordan(rng, h, seed, workdir) -> Tuple[List[Op], Dict[str, str]]:
    row_fn = oracle.example2_row
    ops = [Op(f"reduce@{tag}", "reduce",
              ("reduce", "--family", "example2", "--horizon", str(h * s)), 0,
              expect_reduction(row_fn, h * s))
           for tag, s in SCALES]
    free = {c: _rational(rng) for c in (0, 1, 3)}
    k = 2 * h
    ops.append(Op("solve@2H", "solve",
                  ("solve", "--family", "example2", "--horizon", str(k),
                   "--terms", str(k), "--free", _free_arg(free), "--format", "csv"),
                  0, expect_solution(row_fn, k, k, None, free)))
    ops.append(Op("verify@H", "verify",
                  ("verify", "--family", "example2", "--horizon", str(h),
                   "--seed", str(seed)), 0, expect_verify(seed)))
    return ops, {}


def _deficient(rng, h, seed, workdir) -> Tuple[List[Op], Dict[str, str]]:
    row_fn = oracle.example3_row
    ops = [Op(f"fundamental@{tag}", "fundamental",
              ("fundamental", "--family", "example3", "--horizon", str(h * s),
               "--terms", str(h * s)), 0, expect_fundamental(row_fn, h * s, h * s))
           for tag, s in SCALES]
    k = 2 * h
    y = [_rational(rng) for _ in range(k + 2)]
    g = _dot_all(row_fn, k, y)
    ops.append(Op("solve@2H", "solve",
                  ("solve", "--family", "example3", "--horizon", str(k),
                   "--terms", str(k), f"--g={_csv(g)}", "--format", "csv"),
                  0, expect_solution(row_fn, k, k, g, {})))
    # break consistency at a row that depends on the rows before it
    y = [_rational(rng) for _ in range(h + 2)]
    bad = _dot_all(row_fn, h, y)
    dependent = oracle.first_dependent_row(row_fn, h)
    if dependent is None:
        raise ValueError(f"example3 has no dependent row below {h}")
    bad[dependent] += 1
    ops.append(Op("solve-inconsistent@H", "solve",
                  ("solve", "--family", "example3", "--horizon", str(h),
                   "--terms", str(h), f"--g={_csv(bad)}", "--format", "csv"),
                  4, expect_inconsistent))
    ops.append(Op("verify@H", "verify",
                  ("verify", "--family", "example3", "--horizon", str(h),
                   "--seed", str(seed)), 0, expect_verify(seed)))
    return ops, {}


def _regular(rng, h, seed, workdir) -> Tuple[List[Op], Dict[str, str]]:
    spec = os.path.join(workdir, "regular.json")
    files = {spec: json.dumps({"family": "n_order", "N": oracle.REGULAR_ORDER,
                               "a": oracle.REGULAR_EXPR})}
    init = [_rational(rng) for _ in range(oracle.REGULAR_ORDER)]
    free = _free_arg(dict(enumerate(init)))
    g = [_rational(rng) for _ in range(4 * h)]
    # hess first: the main command leads, so the warm-up op exercises it
    ops = []
    for tag, s in SCALES:
        k = h * s
        ops.append(Op(f"hess@{tag}", "hess",
                      ("hess", "--spec", spec, "--terms", str(k), f"--g={_csv(g[:k])}",
                       "--free", free, "--format", "csv"),
                      0, expect_regular(init, g[:k], with_init=False)))
    for tag, s in SCALES:
        k = h * s
        ops.append(Op(f"solve@{tag}", "solve",
                      ("solve", "--spec", spec, "--horizon", str(k),
                       "--terms", str(k + oracle.REGULAR_ORDER), f"--g={_csv(g[:k])}",
                       "--free", free, "--format", "csv"),
                      0, expect_regular(init, g[:k], with_init=True)))
    return ops, files


def random_explicit(rng: random.Random, width: int) -> List[oracle.Row]:
    """Sparse integer rows whose lengths are a random permutation of
    0..width-1, each with one more entry at most 4 columns to its left; every
    tenth row is followed by the sum of two earlier rows, which reduces to
    zero.  The narrow band and the fixed share of dependent rows keep the
    cost steady from seed to seed (transform nonzeros vary by ~3%, against
    ~8% with the extra entry anywhere to the left)."""
    lengths = list(range(width))
    rng.shuffle(lengths)
    values = (1, -1, 2, -2, 3)
    rows: List[oracle.Row] = []
    for i, length in enumerate(lengths):
        row = {length: Fraction(rng.choice(values))}
        if length:
            row[rng.randrange(max(0, length - 4), length)] = Fraction(rng.choice(values))
        rows.append(row)
        if i % 10 == 9:
            a, b = rng.sample(rows, 2)
            total = {c: a.get(c, 0) + b.get(c, 0) for c in set(a) | set(b)}
            rows.append({c: v for c, v in total.items() if v})
    return rows


def _explicit_json(rows: Sequence[oracle.Row]) -> str:
    return json.dumps({"rows": [[[c, str(v)] for c, v in sorted(r.items())]
                                for r in rows]})


def _explicit(rng, h, seed, workdir) -> Tuple[List[Op], Dict[str, str]]:
    ops, files = [], {}
    for tag, s in SCALES:
        rows = random_explicit(rng, h * s)
        path = os.path.join(workdir, f"explicit-{tag}.json")
        files[path] = _explicit_json(rows)
        row_fn = oracle.table_rows(rows)
        k = len(rows)
        ops.append(Op(f"reduce@{tag}", "reduce",
                      ("reduce", "--spec", path, "--horizon", str(k)), 0,
                      expect_reduction(row_fn, k)))
        if tag == "2H":
            y = [Fraction(rng.randint(-9, 9)) for _ in range(h * s)]
            g = _dot_all(row_fn, k, y)
            solve = Op("solve@2H", "solve",
                       ("solve", "--spec", path, "--horizon", str(k),
                        "--terms", str(h * s), f"--g={_csv(g)}", "--format", "csv"),
                       0, expect_solution(row_fn, k, h * s, g, {}))
    ops.append(solve)
    return ops, files


_BUILDERS = {"jordan": _jordan, "deficient": _deficient,
             "regular": _regular, "explicit": _explicit}


def build(name: str, seed: int, workdir: str, h: Optional[int] = None) -> Workload:
    """The workload's ops and files for this seed; ``h`` overrides the base
    horizon H (the self-test uses tiny ones).  The warm-up op shares no
    input with the timed ops, so nothing it leaves behind can serve them."""
    builder, h = _BUILDERS[name], h or DEFAULT_H[name]
    ops, files = builder(random.Random(f"{name}:{seed}"), h, seed, workdir)
    warm_ops, warm_files = builder(random.Random(f"{name}:{seed}:warmup"),
                                   max(8, h // 4), seed, os.path.join(workdir, "warmup"))
    return Workload(name, tuple(ops), warm_ops[0], {**files, **warm_files})
