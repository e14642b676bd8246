"""Seeded inputs and independent expected values for the four workloads.

This module runs in the benchmark's parent process and never imports egeo:
every expected value is derived from how the input was built (planted
blocks, number of product terms, exact formulas), so the correctness gate
does not share code with what it times.

Each workload is a fixed cycle of operation kinds.  The seed changes the
random content of every input, never the kinds, sizes or their order, so
runs with different seeds measure the same mix.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

import numpy as np

WORKLOADS = ("cut-scan", "rank-profile", "repro-battery", "cli-oneshot")

REPRO_CHECKS = (
    "bell-battery",
    "rank-oracle-agreement",
    "w-state-rank-gap",
    "finest-partition-oracle",
    "degree-hilbert-crosschecks",
    "spin-chain-gluing",
    "weyl-holonomy",
    "cech-obstruction",
    "splitting-equivalence",
    "satake-criteria",
    "incidence-cofactor",
)
# The cheap checks run twice per cycle, so the three slow ones (about 0.15,
# 0.16 and 0.8 s) are 3 of 19 operations and the p90 lands among them.
REPRO_CHEAP = (
    "bell-battery",
    "w-state-rank-gap",
    "weyl-holonomy",
    "splitting-equivalence",
    "spin-chain-gluing",
    "degree-hilbert-crosschecks",
    "incidence-cofactor",
    "cech-obstruction",
)


def mixed(n: int, qutrits: int) -> tuple[int, ...]:
    """n subsystems, all qubits except `qutrits` qutrits spread from the end."""
    dims = [2] * n
    for i in range(qutrits):
        dims[n - 1 - 3 * i] = 3
    return tuple(dims)


# The cycles below use qubit/qutrit mixes so that operation costs are spread
# roughly geometrically, about 1.3-1.5x apart.  cut-scan and rank-profile
# have 15 operations per cycle: a run of k cycles has 15k samples, so the
# p50 (position 7.5k + 0.5) and the p90 (13.5k + 0.9) fall in the middle of
# the k samples of one operation, the 8th and the 14th cheapest, rather than
# between the slowest sample of one operation and the fastest of the next.
# A quantile is then close to a median of one operation, not an extreme.

# cut-scan cycle: (dims, kind, number of planted blocks), about 5 ms to 0.9 s.
# Kinds: "product" (all singletons), "planted", "gme", "near-product"
# (planted, perturbed at relative 1e-12: still product at tol 1e-9),
# "near-gme" (planted, perturbed at 1e-6: GME).  Every n from 8 to 12 has
# an all-qubit state, for the per-n scan times.
CUT_SCAN_CYCLE = (
    (mixed(7, 0), "product", 7),
    (mixed(8, 0), "planted", 3),
    (mixed(8, 1), "gme", 1),
    (mixed(8, 0), "near-gme", 3),
    (mixed(8, 3), "planted", 4),
    (mixed(9, 0), "gme", 1),
    (mixed(9, 1), "product", 9),
    (mixed(9, 3), "near-gme", 2),
    (mixed(10, 0), "planted", 3),
    (mixed(10, 1), "gme", 1),
    (mixed(10, 2), "planted", 2),
    (mixed(10, 0), "near-product", 4),
    (mixed(11, 0), "planted", 3),
    (mixed(11, 1), "near-gme", 2),
    (mixed(12, 0), "planted", 4),
)
PERTURBATION = {"near-product": 1e-12, "near-gme": 1e-6}

# rank-profile cycle: (dims, number of product terms r), about 10 ms to
# 0.4 s, n = 8..11, each r in {2, 3, 4, 6} three or four times.
RANK_PROFILE_CYCLE = tuple(
    (mixed(n, q), r)
    for n, q, r in [
        (8, 0, 2), (8, 1, 4), (8, 2, 6), (8, 3, 3), (9, 0, 6),
        (9, 1, 3), (9, 2, 4), (9, 3, 2), (10, 0, 3), (10, 0, 4),
        (10, 1, 6), (10, 2, 2), (10, 3, 3), (11, 0, 4), (11, 1, 6),
    ]
)

CLI_KINDS = (
    "schmidt",
    "separability",
    "invariants",
    "rank222",
    "holonomy-local",
    "holonomy-nonlocal",
    "spinchain",
    "cech-2",
    "cech-3",
    "cech-4",
    "cech-5",
    "cech-cover",
    "split-reducible",
    "split-irreducible",
    "satake-22",
    "satake-222",
)
COVER_FILE = "cover_p2.json"

# Enough cycles that an untraced run never wraps around to an input it
# already used (a traced run of cli-oneshot, in process, does).
CYCLES = {"cut-scan": 40, "rank-profile": 60, "repro-battery": 60, "cli-oneshot": 20}


def cycle_length(workload: str) -> int:
    return {
        "cut-scan": len(CUT_SCAN_CYCLE),
        "rank-profile": len(RANK_PROFILE_CYCLE),
        "repro-battery": len(REPRO_CHECKS) + len(REPRO_CHEAP),
        "cli-oneshot": len(CLI_KINDS),
    }[workload]


# ------------------------------------------------------------------ states


def _cvec(rng, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def block_product(rng, dims, blocks) -> np.ndarray:
    """Coefficients that factor exactly along blocks, generic inside each."""
    vec = np.ones(1, dtype=complex)
    for block in blocks:
        vec = np.kron(vec, _cvec(rng, math.prod(dims[i] for i in block)))
    order = [i for block in blocks for i in block]
    shaped = vec.reshape([dims[i] for i in order]).transpose(np.argsort(order))
    return shaped.ravel()


def random_blocks(rng, n: int, k: int) -> list[tuple[int, ...]]:
    """A random partition of range(n) into exactly k blocks (non-contiguous)."""
    labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
    rng.shuffle(labels)
    return sorted((tuple(int(i) for i in np.flatnonzero(labels == b)) for b in range(k)), key=min)


def canonical_blocks(blocks) -> list[list[int]]:
    return sorted((sorted(int(i) for i in b) for b in blocks), key=min)


def product_cuts(n: int, blocks) -> list[list[int]]:
    """Every bipartition side containing 0 that is a proper union of blocks."""
    rest = [b for b in blocks if 0 not in b]
    first = next(b for b in blocks if 0 in b)
    cuts = []
    for k in range(len(rest) + 1):
        for chosen in combinations(rest, k):
            side = sorted(set(first).union(*chosen))
            if len(side) < n:
                cuts.append(side)
    return sorted(cuts)


def _cut_scan_op(rng, dims, kind: str, k: int) -> dict:
    n = len(dims)
    if kind == "gme":
        coeffs, blocks = _cvec(rng, math.prod(dims)), [tuple(range(n))]
    else:
        blocks = [(i,) for i in range(n)] if kind == "product" else random_blocks(rng, n, k)
        coeffs = block_product(rng, dims, blocks)
        if kind in PERTURBATION:
            noise = _cvec(rng, coeffs.size)
            coeffs = coeffs + PERTURBATION[kind] * np.linalg.norm(coeffs) * noise / np.linalg.norm(noise)
            if kind == "near-gme":
                blocks = [tuple(range(n))]
    blocks = canonical_blocks(blocks)
    return {
        "kind": kind,
        "dims": tuple(dims),
        "coeffs": coeffs,
        "expect": {"finest": blocks, "cuts": product_cuts(n, blocks), "gme": len(blocks) == 1},
    }


def flattening_bound(dims, r: int) -> int:
    """max over cuts A|B of min(r, D_A, D_B): the rank of a generic r-term sum."""
    n = len(dims)
    best = 0
    for mask in range(1, 2 ** (n - 1)):
        d_a = math.prod(dims[i] for i in range(n) if mask >> i & 1)
        best = max(best, min(r, d_a, math.prod(dims) // d_a))
    return best


def _rank_profile_op(rng, dims, r: int, bound: int) -> dict:
    coeffs = np.zeros(math.prod(dims), dtype=complex)
    for _ in range(r):
        term = np.ones(1, dtype=complex)
        for d in dims:
            term = np.kron(term, _cvec(rng, d))
        coeffs += term
    return {"kind": f"r{r}", "dims": tuple(dims), "coeffs": coeffs, "expect": {"bound": bound}}


# ------------------------------------------------------------------ CLI inputs


def _state_file(path: Path, dims, coeffs) -> str:
    """Write a state JSON file; argv names it relative to the run directory."""
    data = {"dims": list(dims), "coeffs": [[float(z.real), float(z.imag)] for z in coeffs]}
    path.write_text(json.dumps(data), encoding="utf-8")
    return path.name


def _eigs_arg(values) -> str:
    """Eigenvalues as "re,im;re,im"; passed as --eigs=... since it may start with '-'."""
    return ";".join(f"{z.real!r},{z.imag!r}" for z in values)


def _unit_pair(rng) -> tuple[complex, complex]:
    a = complex(np.exp(complex(rng.normal(0, 0.7), rng.normal(0, 0.7))))
    return a, 1 / a


def _loop_word(rng, p: int, local: bool) -> str:
    """A word whose net v-count is 0 mod p exactly when it should be local.

    u is the clock Z of dimension p^2 (diagonal, a Kronecker product of two
    clocks); v is a shift power, local on C^p (x) C^p only for multiples of p.
    """
    letters = list(rng.choice(list("uUvV"), int(rng.integers(3, 8))))
    net = letters.count("v") - letters.count("V")
    if local:
        letters += ["v"] * (-net % p)
    elif net % p == 0:
        letters.append("v")
    return "".join(letters)


def _cli_op(rng, kind: str, tmp: Path, index: int) -> dict:
    path = tmp / f"cli_{index}.json"
    if kind == "schmidt":
        dims, block, k = (2, 3, 2), (0, 2), int(rng.integers(1, 4))
        m = sum(np.outer(_cvec(rng, 4), _cvec(rng, 3)) for _ in range(k))
        coeffs = m.reshape(2, 2, 3).transpose(0, 2, 1).ravel()  # axes (0, 2, 1) -> (0, 1, 2)
        argv = ["schmidt", "--state", _state_file(path, dims, coeffs), "--cut", "0,2"]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "rank": k, "block_a": list(block)}}
    if kind == "separability":
        blocks = random_blocks(rng, 8, 3)
        coeffs = block_product(rng, (2,) * 8, blocks)
        argv = ["separability", "--state", _state_file(path, (2,) * 8, coeffs)]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "finest": canonical_blocks(blocks)}}
    if kind == "invariants":
        da, db = (int(x) for x in rng.integers(2, 5, 2))
        argv = ["invariants", "--da", str(da), "--db", str(db)]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "da": da, "db": db}}
    if kind == "rank222":
        argv = ["rank222", "--state", _state_file(path, (2, 2, 2), _cvec(rng, 8))]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "rank": 2, "bound": 2}}
    if kind.startswith("holonomy"):
        p, local = int(rng.integers(2, 4)), kind == "holonomy-local"
        argv = ["holonomy", "--p", str(p), "--loop", _loop_word(rng, p, local)]
        return {"kind": kind, "argv": argv, "expect": {"code": 0 if local else 1, "local": local}}
    if kind == "spinchain":
        j = float(rng.uniform(0.5, 2.0))
        delta = j + float(rng.uniform(0.1, 2.0))
        theta = float(rng.uniform(0, 2 * np.pi))
        argv = ["spinchain", "--j", repr(j), "--delta", repr(delta), "--theta-u", repr(theta),
                "--branch", str(int(rng.integers(0, 4)))]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "spectrum": sorted([-j, j, delta, delta])}}
    if kind.startswith("cech"):
        if kind == "cech-cover":
            argv, p = ["cech", "--cover", COVER_FILE], 2
        else:
            p = int(kind.split("-")[1])
            argv = ["cech", "--p", str(p)]
        return {"kind": kind, "argv": argv, "expect": {"code": 1, "class_order": p * p}}
    if kind.startswith("split"):
        b, c = sorted(rng.integers(0, 6, 4)), sorted(rng.integers(0, 6, 4))
        degrees = sorted(int(x + y) for x in b for y in c)
        reducible = kind == "split-reducible"
        if not reducible:
            # A 4x4 sumset {b_i + c_j + t} has degree sum 4(sum b + sum c) + 16t,
            # so a sum that is not 0 mod 4 proves irreducibility.
            degrees[int(rng.integers(0, 16))] += 1
        argv = ["split", "--degrees", ",".join(map(str, degrees)), "--shape", "4x4"]
        return {"kind": kind, "argv": argv, "expect": {"code": 0 if reducible else 1, "degrees": sorted(degrees)}}
    if kind == "satake-22":
        (a, ai), (b, bi) = _unit_pair(rng), _unit_pair(rng)
        eigs = [x * y for x in (a, ai) for y in (b, bi)]
        argv = ["satake", f"--eigs={_eigs_arg(eigs)}", "--d", "2,2"]
        return {"kind": kind, "argv": argv, "expect": {"code": 0, "verdict": True}}
    if kind == "satake-222":
        # Generic unit-product spectrum: not a tensor product with probability 1.
        eigs = [complex(np.exp(complex(rng.normal(), rng.normal()))) for _ in range(7)]
        eigs.append(1 / math.prod(eigs))
        argv = ["satake", f"--eigs={_eigs_arg(eigs)}", "--d", "2,2,2"]
        return {"kind": kind, "argv": argv, "expect": {"code": 1, "verdict": False}}
    raise ValueError(f"unknown CLI kind {kind!r}")


# ------------------------------------------------------------------ generation


def generate(workload: str, seed: int, tmp: Path) -> list[dict]:
    """The run's operations, in order.

    CLI input files are written to tmp, the directory the CLI runs in; the
    saved cover COVER_FILE is made there by the worker, with the CLI itself.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "rank-profile":
        bounds = {(dims, r): flattening_bound(dims, r) for dims, r in RANK_PROFILE_CYCLE}
    ops = []
    for cycle in range(CYCLES[workload]):
        if workload == "cut-scan":
            ops += [_cut_scan_op(rng, dims, kind, k) for dims, kind, k in CUT_SCAN_CYCLE]
        elif workload == "rank-profile":
            ops += [_rank_profile_op(rng, dims, r, bounds[dims, r]) for dims, r in RANK_PROFILE_CYCLE]
        elif workload == "repro-battery":
            battery_seed = int(rng.integers(0, 2**31))
            ops += [
                {"kind": name, "check": name, "battery_seed": battery_seed, "expect": {"passed": True}}
                for name in REPRO_CHECKS + REPRO_CHEAP
            ]
        elif workload == "cli-oneshot":
            ops += [_cli_op(rng, kind, tmp, len(ops) + i) for i, kind in enumerate(CLI_KINDS)]
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return ops


# ------------------------------------------------------------------ checking


def _close(a, b, tol=1e-9) -> bool:
    return len(a) == len(b) and all(abs(x - y) <= tol * max(1.0, abs(y)) for x, y in zip(a, b))


def _check_cli(expect: dict, kind: str, got: dict) -> bool:
    if got.get("code") != expect["code"] or not isinstance(got.get("report"), dict):
        return False
    out = got["report"].get("outputs", {})
    if kind == "schmidt":
        return out["rank"] == expect["rank"] and len(out["sigmas"]) == expect["rank"] \
            and out["cut"]["block_a"] == expect["block_a"]
    if kind == "separability":
        return canonical_blocks(out["finest"]["blocks"]) == expect["finest"]
    if kind == "invariants":
        da, db = expect["da"], expect["db"]
        rows = out["table"]
        if [row["r"] for row in rows] != list(range(1, min(da, db) + 1)):
            return False
        for row in rows:
            r = row["r"]
            if (row["dim"], row["codim"]) != (r * (da + db - r) - 1, (da - r) * (db - r)):
                return False
            if row["hilbert"][:2] != [1, da * db]:
                return False
        return rows[0]["degree"] == math.comb(da + db - 2, da - 1) and rows[-1]["degree"] == 1
    if kind == "rank222":
        return out["rank"] == expect["rank"] and out["flattening_lower_bound"] == expect["bound"]
    if kind.startswith("holonomy"):
        return out["local_operation"] is expect["local"]
    if kind == "spinchain":
        return _close(sorted(out["spectrum"]), expect["spectrum"])
    if kind.startswith("cech"):
        return out["class_order"] == expect["class_order"] and out["reducible"] is False
    if kind.startswith("split"):
        if expect["code"] == 1:
            return out["reducible"] is False
        recombined = sorted(x + y + out["t"] for x in out["b"] for y in out["c"])
        return out["reducible"] is True and recombined == expect["degrees"]
    if kind.startswith("satake"):
        return out["verdict"] is expect["verdict"] and out["oracle_agrees"] is True
    return False


def check(workload: str, op: dict, got) -> bool:
    """True iff the operation's result matches the value expected by construction."""
    expect = op["expect"]
    if not isinstance(got, dict) or "error" in got:
        return False
    try:
        if workload == "cut-scan":
            return (
                canonical_blocks(got["finest"]) == expect["finest"]
                and sorted(sorted(c) for c in got["cuts"]) == expect["cuts"]
                and got["gme"] is expect["gme"]
            )
        if workload == "rank-profile":
            return got["bound"] == expect["bound"]
        if workload == "repro-battery":
            return got["name"] == op["check"] and got["passed"] is True
        if workload == "cli-oneshot":
            return _check_cli(expect, op["kind"], got)
    except (KeyError, TypeError, IndexError):
        return False
    raise ValueError(f"unknown workload {workload!r}")
