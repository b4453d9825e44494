"""Correctness checks on one job's output, against reference.py or against a
property the method must have. None compares with a stored copy of an
earlier output.

Each check returns a list of problems; an empty list means the output passed.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

import reference
import workloads

DIMS_KEYS = {"spec", "p", "N", "a", "b", "w", "c", "galois_exponents"}


@lru_cache(maxsize=None)
def _series(tree, order):
    return reference.series_of(tree, order)


def _first_mismatch(label, got, want, start=0):
    for n in range(start, max(len(got), len(want))):
        g = got[n] if n < len(got) else None
        w = want[n] if n < len(want) else None
        if g != w:
            return [f"{label}: n={n} expected={w} got={g}"]
    return []


def _is_count(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


def check_dims(job, stdout: str) -> list[str]:
    try:
        data = json.loads(stdout)
    except ValueError:
        return ["dims output is not JSON"]
    if not isinstance(data, dict) or set(data) != DIMS_KEYS:
        return [f"dims keys are {sorted(data) if isinstance(data, dict) else type(data)}"]
    p, order = job.p, job.n
    problems = []
    if (data["spec"], data["p"], data["N"]) != (workloads.text(job.tree), p, order):
        problems.append(f"header is {data['spec']!r}, p={data['p']}, N={data['N']}")
    a, b, w, c, g = (data[k] for k in ("a", "b", "w", "c", "galois_exponents"))
    if not all(isinstance(x, list) and len(x) == order + 1 for x in (a, b, w, c, g)):
        return problems + [f"arrays must each hold N + 1 = {order + 1} entries"]
    if not all(_is_count(x) for x in c[1:]):
        problems.append("some c_n is not a non-negative integer")
        return problems
    if not all(isinstance(x, int) for x in w):
        problems.append("some w_n is not an integer")
    try:
        if any((n * Fraction(b[n])).denominator != 1 for n in range(order + 1)):
            problems.append("some n b_n is not an integer")
    except (TypeError, ValueError):
        problems.append("some b_n is not an exact rational")
    partial = [sum(c[1 : k + 1]) for k in range(order + 1)]
    problems += _first_mismatch("galois_exponents vs partial sums of c", g, partial)
    problems += _first_mismatch("a vs rebuild from c", a, reference.rebuild(c[1:], p, order))
    problems += _first_mismatch("a vs reference expansion", a, _series(job.tree, order))
    for prop in job.props:
        problems += _check_prop(prop, w, c, p, order)
    return problems


def _check_prop(prop, w, c, p, order) -> list[str]:
    kind, *args = prop
    degrees = range(1, order + 1)
    if kind == "necklace":
        (d,) = args
        want = [0] + [reference.necklace(d, n) for n in degrees]
        return _first_mismatch(f"w vs necklace counts of free({d})", w, want, 1)
    if kind == "power_sums":
        s = reference.power_sums(*args, order)
        want = [0] + [reference.moebius_transform(s, n) for n in degrees]
        return _first_mismatch("w vs Moebius transform of the power sums", w, want, 1)
    if kind == "superpyth":
        (d,) = args
        want = [0, d + 1] + [d if n & (n - 1) == 0 else 1 for n in range(2, order + 1)]
        return _first_mismatch(f"c vs the superpyth({d}) pattern", c, want, 1)
    if kind == "involutions":
        (k,) = args
        free_w = [reference.necklace(k - 1, n) for n in degrees]
        want = [0, k] + reference.c_from_w(free_w, p)[1:]
        return _first_mismatch(f"c of {k} x cyclic(2) vs free({k - 1})", c, want, 1)
    raise ValueError(f"unknown property {kind!r}")


_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def check_verify(job, stdout: str, code) -> list[str]:
    lines = stdout.splitlines()
    match = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if code != 0 or match is None:
        return [f"exit code {code}, last line {lines[-1] if lines else None!r}"]
    passed, total = int(match[1]), int(match[2])
    passes = sum(line.startswith("PASS ") for line in lines[:-1])
    if not (passed == total == passes == len(lines) - 1 and total > 0):
        return [f"{passed}/{total} passed with {passes} PASS lines of {len(lines) - 1}"]
    return []


_ELEMENT = re.compile(r"(.+?)(?:\^(\d+))?")


def check_basis(job, stdout: str, code) -> list[str]:
    lines = stdout.splitlines()
    if code != 0 or not lines or not lines[-1].startswith("count = "):
        return [f"exit code {code}, last line {lines[-1] if lines else None!r}"]
    d, p, n = job.tree[1], job.p, job.n
    free_w = [reference.necklace(d, m) for m in range(1, n + 1)]
    want = reference.c_from_w(free_w, p)[n - 1]
    elements = lines[:-1]
    problems = []
    if int(lines[-1][len("count = "):]) != want or len(elements) != want:
        problems.append(f"count {lines[-1]!r} with {len(elements)} lines, c_{n} = {want}")
    if len(set(elements)) != len(elements):
        problems.append("a basis line repeats")
    for line in elements:
        commutator, power = _ELEMENT.fullmatch(line).groups()
        power = int(power or 1)
        j = 0
        while p ** j < power:
            j += 1
        if p ** j != power or commutator.count("x") * power != n:
            problems.append(f"{line!r}: weight x p^j is not {n}")
            break
    return problems


def check_filtration(job, value) -> list[str]:
    layers = workloads.expected_layers(job.group)
    want = layers + [0] * (job.depth - len(layers))
    if value["dims"] != want or value["last_size"] != 1:
        return [f"layer dims {value['dims']} (last size {value['last_size']}), expected {want}"]
    return []


def check_augmentation(job, value, layers) -> list[str]:
    """Ranks equal the Jennings polynomial of the oracle's own layer dims."""
    p = job.group[0][1]
    order = p ** sum(m * (m - 1) // 2 for m, _ in job.group)
    expected = workloads.expected_layers(job.group)
    trimmed = list(layers)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    problems = [] if trimmed == expected else [f"oracle layer dims {layers}, expected {expected}"]
    poly = reference.jennings(trimmed, p)
    problems += _first_mismatch("ranks vs Jennings polynomial", value,
                                poly + [0] * (job.depth + 1 - len(poly)))
    if sum(value) != order:
        problems.append(f"ranks sum to {sum(value)}, |G| = {order}")
    return problems


def check(job, record: dict, layers: dict) -> list[str]:
    """Problems with one job's successful output."""
    if job.kind == "dims":
        return check_dims(job, record["stdout"])
    if job.kind == "verify":
        return check_verify(job, record["stdout"], record["code"])
    if job.kind == "basis":
        return check_basis(job, record["stdout"], record["code"])
    if job.kind == "filtration":
        return check_filtration(job, record["value"])
    return check_augmentation(job, record["value"], layers[workloads.group_name(job.group)])
