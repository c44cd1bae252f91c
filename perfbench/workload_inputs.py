"""Seeded inputs of the three benchmark workloads.

``build(workload, seed)`` is a pure function of its arguments: it returns
plain data (lists, ints and JSON document text) and touches no multiarr
object, so generating inputs never fills a multiarr cache.

Shapes (line counts, caps, ``|m|`` rungs, document sizes) are fixed per
workload; the coefficients, the order of multiplicities, one shift point
per arrangement and the certified sample points come from the seed.  Fixing the shapes keeps the work of a round nearly
the same from seed to seed, which is what lets ten seeds agree within the
bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import random

WORKLOADS = ("scan", "ladder", "free")

PRIME = 2_147_483_647  # 2^31 - 1, the "large prime" of the ladder's GF(p) half

# The fixed members named in the ROADMAP table, present whatever the seed.
FIVE_LINES = [[1, 0], [0, 1], [1, 1], [1, -1], [1, 2]]
B2_LINES = [[1, 0], [0, 1], [1, -1], [1, 1]]
A2_LINES = [[1, 0], [0, 1], [1, 1]]
BRAID3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, -1, 0], [1, 0, -1], [0, 1, -1]]
B3 = [
    [1, 0, 0], [0, 1, 0], [0, 0, 1],
    [1, 1, 0], [1, -1, 0], [1, 0, 1], [1, 0, -1], [0, 1, 1], [0, 1, -1],
]

# scan: caps of the seeded regions (one cap per line), each verified three ways
SCAN_SHAPES = (
    ((5, 5, 5),) * 2
    + ((4, 4, 4),) * 4
    + ((2, 2, 2, 2),) * 4
    + ((3, 3, 3, 3),) * 2
    + ((2, 2, 2, 2, 2),) * 2
    + ((1, 1, 1, 1, 1),) * 2
)
SCAN_COEFF = 3
SAITO_SAMPLES = 3  # points per region whose basis is certified

# ladder: |m| rungs; every rung has one document per h in 3..6, two over Q
# and two over GF(PRIME), alternating from rung to rung
LADDER_RUNGS = (10, 15, 20, 22, 24, 26, 28, 30, 35, 40)
LADDER_LINES = (3, 4, 5, 6)
LADDER_COEFF = 2
# k of the maximal-gap points (2k+1,)*h: one draw from each range, per arrangement
SHIFT_K = ((1, 2), (3, 3), (4, 4))

# free: documents of small coefficients, plus a wide share
FREE_RANDOM_H = (4, 5, 6, 7, 8, 9)
FREE_B3_H = (4, 5, 6, 7, 8, 9)
FREE_AFFINE_LINES = (3, 4, 5, 6)
FREE_WIDE_H = (4, 5, 6, 7, 8, 9)
FREE_COEFF = 4
WIDE_FRAME = 5  # wide planes are u x w with |u_i|, |w_i| <= WIDE_FRAME
WIDE_MIN_COEFF = 16


def _primitive(v):
    g = 0
    for x in v:
        g = math.gcd(g, x)
    v = [x // g for x in v]
    lead = next(x for x in v if x)
    return [-x for x in v] if lead < 0 else v


def _distinct_vectors(rng, count, dim, bound, accept=lambda v: True):
    out = []
    while len(out) < count:
        v = [rng.randint(-bound, bound) for _ in range(dim)]
        if not any(v):
            continue
        v = _primitive(v)
        if v not in out and accept(v):
            out.append(v)
    return out


def _cross(u, w):
    return [u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2], u[0] * w[1] - u[1] * w[0]]


def _wide_planes(rng, count):
    # Cross products of short vectors: the coefficients reach a few dozen,
    # yet each plane has a kernel frame of max-norm <= WIDE_FRAME, so the
    # frame search, and with it the call time, stays bounded and steady.
    out = []
    while len(out) < count:
        u = [rng.randint(-WIDE_FRAME, WIDE_FRAME) for _ in range(3)]
        w = [rng.randint(-WIDE_FRAME, WIDE_FRAME) for _ in range(3)]
        v = _cross(u, w)
        if not any(v):
            continue
        v = _primitive(v)
        if max(abs(x) for x in v) >= WIDE_MIN_COEFF and v not in out:
            out.append(v)
    return out


def _balanced_split(rng, total, h):
    # the near-uniform split in a seeded order: balanced, and of one shape
    # for every seed, so that the seed moves the cost of a rung little
    m = [total // h + (i < total % h) for i in range(h)]
    rng.shuffle(m)
    return m


def doc_planar(forms, mult, p=None, name=None):
    """A central planar document with multiplicities."""
    return _doc(name, p, 2, True, [{"coeffs": [str(c) for c in f], "mult": k} for f, k in zip(forms, mult)])


def doc_central3(forms, name=None):
    return _doc(name, None, 3, True, [{"coeffs": [str(c) for c in f]} for f in forms])


def doc_affine(lines):
    return _doc(None, None, 2, False, [{"coeffs": [str(c) for c in f]} for f in lines])


def _doc(name, p, dim, central, hyperplanes):
    body = {"field": "Q" if p is None else {"p": p}, "dim": dim, "central": central, "hyperplanes": hyperplanes}
    if name is not None:
        body["name"] = name
    return json.dumps(body, sort_keys=True)


def _scan(rng):
    regions = [{"forms": B2_LINES, "caps": [5, 5, 5, 5]}]
    for caps in SCAN_SHAPES:
        regions.append({"forms": _distinct_vectors(rng, len(caps), 2, SCAN_COEFF), "caps": list(caps)})
    for reg in regions:
        samples = []
        while len(samples) < SAITO_SAMPLES:
            m = [rng.randint(0, c) for c in reg["caps"]]
            if sum(m) and m not in samples:
                samples.append(m)
        reg["samples"] = samples
    calls = [{"id": "anchor/limit b2_lines caps 5,5,5,5", "region": 0, "verify": "limit", "anchor": True}]
    for i in range(1, len(regions)):
        for verify in ("one", "limit", "str"):
            calls.append({"id": f"r{i}/{verify}", "region": i, "verify": verify})
    return {"regions": regions, "calls": calls}


def _ladder(rng):
    calls = [
        {
            "id": "anchor/exp five_lines m=(16,)*5",
            "argv": ["exp", "-", "--json"],
            "doc": doc_planar(FIVE_LINES, [16] * 5, name="five_lines"),
            "check": {"kind": "exp", "forms": FIVE_LINES, "m": [16] * 5, "p": None},
            "anchor": True,
        }
    ]
    for rung, total in enumerate(LADDER_RUNGS):
        for h in LADDER_LINES:
            p = None if (rung + h) % 2 == 0 else PRIME
            forms = _distinct_vectors(rng, h, 2, LADDER_COEFF)
            m = _balanced_split(rng, total, h)
            calls.append(
                {
                    "id": f"exp |m|={total} h={h} {'Q' if p is None else 'GF(p)'}",
                    "argv": ["exp", "-", "--json"],
                    "doc": doc_planar(forms, m, p),
                    "check": {"kind": "exp", "forms": forms, "m": m, "p": p},
                }
            )
    for name, forms in (("a2", A2_LINES), ("b2_lines", B2_LINES)):
        for k_range in SHIFT_K:
            k = rng.randint(*k_range)
            m0 = [2 * k + 1] * len(forms)
            calls.append(
                {
                    "id": f"shift {name} m0=({2 * k + 1},)*{len(forms)}",
                    "argv": ["shift", "-", "--m0", ",".join(map(str, m0)), "--json"],
                    "doc": doc_planar(forms, [1] * len(forms), name=name),
                    "check": {"kind": "shift"},
                }
            )
    return {"calls": calls}


def _free(rng):
    docs = [("braid3", doc_central3(BRAID3, name="braid3"), None)]
    for h in FREE_RANDOM_H:
        docs.append((f"random h={h}", doc_central3(_distinct_vectors(rng, h, 3, FREE_COEFF)), h))
    for h in FREE_B3_H:
        signs = [rng.choice((-1, 1)) for _ in range(3)]
        perm = rng.sample(range(3), 3)
        planes = [_primitive([signs[i] * v[perm[i]] for i in range(3)]) for v in rng.sample(B3, h)]
        docs.append((f"B3 subset h={h}", doc_central3(planes), h))
    for n in FREE_AFFINE_LINES:
        lines = _distinct_vectors(rng, n, 3, FREE_COEFF, accept=lambda v: bool(v[0] or v[1]))
        docs.append((f"affine {n} lines", doc_affine(lines), n + 1))
    for h in FREE_WIDE_H:
        docs.append((f"wide h={h}", doc_central3(_wide_planes(rng, h)), h))
    calls = []
    for group, (label, text, planes) in enumerate(docs):
        if planes is None:
            calls.append(
                {"id": f"anchor/free {label}", "argv": ["free", "-", "--json"], "doc": text,
                 "check": {"kind": "free", "group": group}, "anchor": True}
            )
            continue
        for h0 in range(planes):
            calls.append(
                {"id": f"free {label} H0={h0}", "argv": ["free", "-", "--H0", str(h0), "--json"], "doc": text,
                 "check": {"kind": "free", "group": group}}
            )
    return {"calls": calls}


def build(workload: str, seed: int) -> dict:
    """The inputs of one round of ``workload`` for ``seed``."""
    makers = {"scan": _scan, "ladder": _ladder, "free": _free}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return makers[workload](random.Random(f"{workload}:{seed}"))
