"""The benchmark's workloads: which jobs one pass runs, and their inputs.

A job is one call into the program: a ``zass`` argument list run through
``zassenhaus.cli.main``, or one call of ``finite.zassenhaus_filtration_finite``
or ``finite.group_algebra_aug_dims``. Two workloads: ``cli-pipeline`` runs the
``zass`` jobs of three parts (``dims-deep``, ``wide-products`` and the
``verify`` and ``basis`` jobs of the verify catalog), ``finite-oracle`` the
``filtration`` and ``augmentation`` jobs. Every input is fixed except the
drawn expression of ``wide-products``, which comes from the seed. Both the
pass process (to run the jobs) and the checker (to know what each output
must be) build the jobs from here, so they cannot disagree.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

import reference

WORKLOADS = ("cli-pipeline", "finite-oracle")
PARTS = ("dims-deep", "wide-products", "verify", "basis", "filtration", "augmentation")


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # dims | verify | basis | filtration | augmentation
    part: str  # the job group its time is summed into: one of PARTS
    argv: tuple[str, ...] = ()
    group: tuple[tuple[int, int], ...] = ()  # finite jobs: U(m, p) blocks
    depth: int = 0
    # dims and basis jobs: the expression tree (free(d) for a basis), p, N,
    # and for dims the property checks that apply
    tree: tuple = ()
    p: int = 0
    n: int = 0
    props: tuple = ()


def text(tree) -> str:
    """Expression text; 'x' binds tighter than '*', so no parentheses needed."""
    head, body = tree
    if head == "*":
        return " * ".join(text(f) for f in body)
    if head == "x":
        return " x ".join(text(f) for f in body)
    return f"{head}({body})"


def _dims(part, name, tree, p, n, props=(), expr=None) -> Job:
    argv = ("dims", expr or text(tree), "--prime", str(p), "--max-n", str(n), "--format", "json")
    return Job(name, "dims", part, argv, tree=tree, p=p, n=n, props=tuple(props))


def _chain(k: int, p: int):
    return ("*", tuple(("cyclic", p) for _ in range(k)))


# Leaves of the drawn wide-products expression at p = 3.
_DRAW_LEAVES = (("free", 1), ("free", 2), ("cyclic", 3), ("demushkin", 2),
                ("demushkin", 3), ("zp", 1), ("zp", 2))


def drawn_expression(seed: int, factors: int = 48):
    """Free product of seeded factors, half leaves and half two-leaf direct products.

    The half-and-half split is fixed and only its order and the leaves are
    drawn, so the work, and with it wall_ref_s, varies little from seed to seed.
    """
    rng = random.Random(seed)
    shapes = [1, 2] * (factors // 2)
    rng.shuffle(shapes)
    out = []
    for size in shapes:
        leaves = tuple(rng.choice(_DRAW_LEAVES) for _ in range(size))
        out.append(leaves[0] if size == 1 else ("x", leaves))
    return ("*", tuple(out))


def expected_layers(group: tuple[tuple[int, int], ...]) -> list[int]:
    """Filtration layer dims: U(m, p) has m-1, m-2, ..., 1 and products add."""
    layers: list[int] = []
    for m, _ in group:
        for i, d in enumerate(range(m - 1, 0, -1)):
            if i == len(layers):
                layers.append(0)
            layers[i] += d
    return layers


def group_name(group) -> str:
    return "x".join(f"U({m},{p})" for m, p in group)


def _filtration(group) -> Job:
    # one layer past the last nontrivial one, so the chain is seen to reach 1
    depth = len(expected_layers(group)) + 1
    return Job(f"filtration {group_name(group)}", "filtration", "filtration",
               group=group, depth=depth)


def _augmentation(group) -> Job:
    # one degree past the Jennings polynomial, so the last rank is 0
    depth = len(reference.jennings(expected_layers(group), group[0][1]))
    return Job(f"augmentation {group_name(group)}", "augmentation", "augmentation",
               group=group, depth=depth)


def _dims_deep() -> list[Job]:
    return [
        _dims("dims-deep", "free(2) N=400", ("free", 2), 2, 400, [("necklace", 2)]),
        _dims("dims-deep", "superpyth(3) N=200", ("superpyth", 3), 2, 200, [("superpyth", 3)]),
        # P^-1 = (1 - 3t + t^2) + (1 - 4t + t^2) + (1 - t) - 2 = 1 - 8t + 2t^2
        _dims("dims-deep", "demushkin(3)*demushkin(4)*free(1) N=200",
              ("*", (("demushkin", 3), ("demushkin", 4), ("free", 1))), 2, 200,
              [("power_sums", 8, 2)]),
        _dims("dims-deep", "cyclic(3)*free(2)xzp(2) N=150",
              ("*", (("cyclic", 3), ("x", (("free", 2), ("zp", 2))))), 3, 150),
        _dims("dims-deep", "cyclic(5)*demushkin(3) N=160",
              ("*", (("cyclic", 5), ("demushkin", 3))), 5, 160),
    ]


def _wide_products(seed: int) -> list[Job]:
    return [
        _dims("wide-products", "200 x cyclic(2) N=60", _chain(200, 2), 2, 60,
              [("involutions", 200)]),
        _dims("wide-products", f"drawn 48 factors seed={seed} N=60", drawn_expression(seed), 3, 60),
        # These two fail at the parent commit with RecursionError; once they
        # pass, their outputs go through the same checks as the others.
        _dims("wide-products", "1200 x cyclic(2) N=8", _chain(1200, 2), 2, 8,
              [("involutions", 1200)]),
        _dims("wide-products", "free(1) in 400 parentheses N=8", ("free", 1), 2, 8,
              [("necklace", 1)], expr="(" * 400 + "free(1)" + ")" * 400),
    ]


def _verify_catalog() -> list[Job]:
    out = []
    for p in (2, 3, 5):
        out.append(Job(f"verify roundtrip p={p}", "verify", "verify",
                       ("verify", "--suite", "roundtrip", "--prime", str(p), "--max-n", "40")))
        out.append(Job(f"verify closedforms p={p}", "verify", "verify",
                       ("verify", "--suite", "closedforms", "--prime", str(p), "--max-n", "24")))
    for d, p, n in ((2, 3, 18), (3, 2, 10)):
        out.append(Job(f"basis {d} p={p} degree={n}", "basis", "basis",
                       ("basis", str(d), "--prime", str(p), "--degree", str(n)),
                       tree=("free", d), p=p, n=n))
    return out


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass, in the order they run."""
    if workload == "cli-pipeline":
        return _dims_deep() + _wide_products(seed) + _verify_catalog()
    if workload == "finite-oracle":
        u42_u22 = ((4, 2), (2, 2))
        return [
            _filtration(((5, 2),)),
            _filtration(((4, 3),)),
            _filtration(u42_u22),
            _augmentation(u42_u22),
            _augmentation(((4, 2),)),
            _augmentation(((3, 3),)),
        ]
    raise ValueError(f"unknown workload {workload!r}")
