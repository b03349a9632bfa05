"""Seeded request streams for the cavsqueeze benchmark.

A workload is an endless sequence of blocks of CLI requests.  Every block of
a workload has the same composition: the sizes that set a request's cost
(grid steps, photon numbers, the kind of state checked) sit one per stratum
of the law the workload draws from, and the seed picks where inside the
middle of each stratum a value falls, the order of the requests and the
attributes that barely change the cost (photon numbers of ``scan``, gt-max,
which states carry ``--verify``, the states themselves).  A run executes
whole blocks, so two seeds put the same mix of work in front of the program
and the run-to-run spread measures the program, not the draw.

Only the generated argv and state files reach the program.  State files are
written here, before the block that reads them starts.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

# Decision floor of the partial-transpose verdict in the program under test;
# near-floor states are placed within 1e-9 of it.
PPT_FLOOR = -1e-12

WHY = {
    "scan": (
        "scan-time without --verify: the main user path, whose time is the per-row "
        "closed-form, DensityMatrix, spin-moment, xi^2, PPT and render loop"
    ),
    "verify": (
        "scan-time --verify with n 1-60: time goes to evolve_exact, one Hamiltonian "
        "eigh and one joint-state eigvalsh per row; photon numbers repeat"
    ),
    "states": (
        "check-state and family on random, pure, separable, family, near-PPT-floor "
        "and 10% invalid states; --verify runs the global xi^2 sphere search"
    ),
}

# Which per-layer metric should move which end-to-end metric, on which
# workload, and where it should stay put.  Written down before measuring.
LAYER_EXPECTATIONS = [
    {
        "per_layer": [
            "criteria.spin_moments.*",
            "criteria.xi_squared.perp.*",
            "criteria.xi_squared_in_frame.*",
            "criteria.negativity.*",
            "criteria.ppt_entangled.*",
        ],
        "moves": ["items_per_s", "latency_p50_ms"],
        "on": ["scan"],
        "not_on": ["states (--verify part)"],
    },
    {
        "per_layer": [
            "states.DensityMatrix.*",
            "states.family_density.*",
            "states.FamilyCoeffs.calls",
            "dynamics.closed_form_coeffs.*",
            "cli.main.self_s",
            "cli.build_scan_rows.self_s",
        ],
        "moves": ["items_per_s"],
        "on": ["scan"],
        "not_on": [],
    },
    {
        "per_layer": [
            "dynamics.evolve_exact.*",
            "dynamics.build_hamiltonian.*",
            "linalg.hermitian_eig.*",
            "linalg.evolution_operator.*",
            "states.density_from_pure.*",
            "states.partial_trace.*",
        ],
        "moves": ["items_per_s", "latency_tail_ms"],
        "on": ["verify"],
        "not_on": ["scan", "states"],
    },
    {
        "per_layer": ["criteria.xi_squared.global.*"],
        "moves": ["latency_tail_ms", "items_per_s"],
        "on": ["states"],
        "not_on": ["scan", "verify"],
    },
    {
        "per_layer": ["states.load_density_matrix.*", "states.partial_transpose.calls"],
        "moves": ["latency_p50_ms"],
        "on": ["states"],
        "not_on": ["verify"],
    },
]

PHOTON_BINS = [(1, 1), (2, 5), (6, 10), (11, 20), (21, 40), (41, 60)]
STEP_BINS = [(2, 50), (51, 200), (201, 1000), (1001, 3000), (3001, 10001)]


@dataclass
class Request:
    """One CLI invocation and what a correct answer to it looks like."""

    kind: str  # "scan", "verify", "check-state" or "family"
    argv: List[str]
    expect_code: int = 0
    items: int = 1
    verify: bool = False
    photons: Optional[int] = None
    steps: Optional[int] = None
    gt_max: Optional[float] = None
    fmt: str = "csv"
    state: Optional[str] = None  # states workload: the kind of state sent
    expect_ppt: Optional[bool] = None  # near-floor states: the known verdict
    files: List[Path] = field(default_factory=list)


def _rng(workload: str, seed: int, block: int) -> np.random.Generator:
    tag = sum(ord(ch) << (8 * i) for i, ch in enumerate(workload))
    return np.random.default_rng([seed, block, tag])


def _strata(rng, lo: float, hi: float, count: int, log: bool = False) -> np.ndarray:
    """One value per equal-width stratum of [lo, hi], within a tenth of its centre."""
    u = (np.arange(count) + 0.5 + rng.uniform(-0.1, 0.1, count)) / count
    if log:
        return np.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))
    return lo + u * (hi - lo)


# --- scan -----------------------------------------------------------------

SCAN_PER_BLOCK = 12  # step strata per block; one request in four prints JSON


def scan_block(seed: int, block: int, workdir: Path) -> List[Request]:
    rng = _rng("scan", seed, block)
    steps = np.rint(_strata(rng, 301, 10_001, SCAN_PER_BLOCK, log=True)).astype(int)
    photons = rng.integers(1, 51, SCAN_PER_BLOCK)
    photons[rng.integers(SCAN_PER_BLOCK)] = 1  # one n = 1 request per block meets the closed-form check
    requests = []
    for i, n_steps in enumerate(steps):
        n = int(photons[i])
        gt_max = round(float(rng.uniform(0.5, 10.0)), 6)
        # JSON on every fourth stratum, so its larger output always falls on
        # the same sizes and the peak memory does not depend on the seed.
        fmt = "json" if i % 4 == 1 else "csv"
        argv = ["scan-time", "--photons", str(n), "--gt-max", repr(gt_max),
                "--steps", str(int(n_steps))]
        if fmt == "json":
            argv += ["--format", "json"]
        requests.append(Request("scan", argv, items=int(n_steps), photons=n,
                                steps=int(n_steps), gt_max=gt_max, fmt=fmt))
    return [requests[i] for i in rng.permutation(len(requests))]


# --- verify ---------------------------------------------------------------

VERIFY_PHOTON_POINTS = 5  # photon numbers per block, from 1 to 60
VERIFY_STEP_STRATA = 4  # step strata per block, log-uniform over 11..201
VERIFY_MAX_PHOTONS = 60


def verify_block(seed: int, block: int, workdir: Path) -> List[Request]:
    """Every photon number of the block meets every step stratum once.

    The cost of a row grows like (4(n+1))^3, so pairing all photon numbers
    with all step counts keeps a block's work the same for every seed; each
    photon number appears in four requests, which is the repetition a
    diagonalize-once-per-photon-number change would exploit.
    """
    rng = _rng("verify", seed, block)
    k = VERIFY_PHOTON_POINTS
    spots = (np.arange(k) + rng.uniform(-0.05, 0.05, k)) / (k - 1)
    photons = np.clip(np.rint(1 + (VERIFY_MAX_PHOTONS - 1) * spots), 1, VERIFY_MAX_PHOTONS)
    steps = np.rint(_strata(rng, 11, 201, VERIFY_STEP_STRATA, log=True)).astype(int)
    requests = []
    for n in photons.astype(int):
        for n_steps in steps:
            gt_max = round(float(rng.uniform(0.5, 10.0)), 6)
            argv = ["scan-time", "--photons", str(int(n)), "--gt-max", repr(gt_max),
                    "--steps", str(int(n_steps)), "--verify"]
            requests.append(Request("verify", argv, items=int(n_steps), verify=True,
                                    photons=int(n), steps=int(n_steps), gt_max=gt_max))
    return [requests[i] for i in rng.permutation(len(requests))]


def verify_largest_photons(seed: int) -> int:
    return max(r.photons for r in verify_block(seed, 0, Path(".")))


# --- states ---------------------------------------------------------------

# Per block: check-state files by kind, then family argv tuples by kind.
CHECK_KINDS = {"mixed": 6, "pure": 6, "separable": 6, "family": 6, "near-floor": 6}
CHECK_INVALID_PER_BLOCK = 4
INVALID_FILE_KINDS = ("non-hermitian", "not-psd", "bad-trace", "malformed-json", "bad-dims")
FAMILY_KINDS = {"coherence-free": 6, "coherent": 12, "squeezed": 6}
FAMILY_INVALID_KINDS = ("bad-sum", "bad-coherence")
# |x1 - x3| stays above this in family requests: `family --verify` compares
# the closed-form quotient, which grows like 1/(x1 - x3)^2, to an absolute
# 1e-9, so near-zero mean spin would fail for want of digits, not of logic.
FAMILY_MIN_MEAN_GAP = 1e-2


def _ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _normalize(mat: np.ndarray) -> np.ndarray:
    mat = 0.5 * (mat + mat.conj().T)
    return mat / mat.trace().real


def _random_mixed(rng, dim=4):
    g = _ginibre(rng, dim, int(rng.integers(2, dim + 1)))
    return _normalize(g @ g.conj().T)


def _random_pure(rng, dim=4):
    psi = _ginibre(rng, dim, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    return _normalize(np.outer(psi, psi.conj()))


def _random_qubit(rng):
    return _random_mixed(rng, 2) if rng.uniform() < 0.5 else _random_pure(rng, 2)


def _random_separable(rng):
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 5))))
    mat = sum(w * np.kron(_random_qubit(rng), _random_qubit(rng)) for w in weights)
    return _normalize(mat)


def _family_matrix(x1, x2, x3, y):
    h = 0.5 * x2
    return np.array(
        [[x1, 0, 0, y], [0, h, h, 0], [0, h, h, 0], [y, 0, 0, x3]], dtype=complex
    )


def _family_tuple(rng, kind: str):
    """Populations summing to 1 in floating point and a real coherence."""
    while True:
        if kind == "squeezed":
            x1 = float(rng.uniform(0.6, 0.95))
            x2 = float(rng.uniform(0.0, 0.05))
        else:
            x1, x2, _ = (float(v) for v in rng.dirichlet(np.ones(3)))
        x3 = 1.0 - x1 - x2
        if x3 >= 0.0 and abs(x1 - x3) >= FAMILY_MIN_MEAN_GAP:
            break
    bound = math.sqrt(x1 * x3)
    if kind == "coherence-free":
        y = 0.0
    elif kind == "squeezed":
        y = -float(rng.uniform(0.8, 0.99)) * bound
    else:
        y = float(rng.uniform(-0.99, 0.99)) * bound
    return x1, x2, x3, y


def _pt_min_eigenvalue(mat: np.ndarray) -> float:
    pt = mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return float(np.linalg.eigvalsh(pt)[0])


def _near_floor(rng):
    """A state whose smallest partial-transpose eigenvalue sits within 1e-9 of the floor.

    Mixes a separable state with an entangled pure one and bisects the weight
    until the smallest partial-transpose eigenvalue lands at the floor plus a
    signed margin between 1e-11 and 1e-9; the sign sets the expected verdict.
    """
    sep = 0.5 * _random_separable(rng) + 0.125 * np.eye(4)
    while True:
        ent = _random_pure(rng)
        if _pt_min_eigenvalue(ent) < -0.05:
            break
    margin = float(rng.uniform(1e-11, 1e-9)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    target = PPT_FLOOR + margin
    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _pt_min_eigenvalue(_normalize((1 - mid) * sep + mid * ent)) > target:
            lo = mid
        else:
            hi = mid
    mat = _normalize((1 - lo) * sep + lo * ent)
    return mat, _pt_min_eigenvalue(mat) < PPT_FLOOR


def _state_doc(mat: np.ndarray, dims) -> dict:
    return {
        "dims": list(dims),
        "rows": [[[float(z.real), float(z.imag)] for z in row] for row in mat],
    }


def _invalid_doc(rng, kind: str):
    """A state file that must be rejected, and the exit code the README gives for it."""
    mat = _random_mixed(rng)
    if kind == "non-hermitian":
        mat[0, 1] += 1e-6
    elif kind == "not-psd":
        values, vectors = np.linalg.eigh(mat)
        values = values + np.array([-values[0] - 0.01, 0.0, 0.0, values[0] + 0.01])
        mat = (vectors * values) @ vectors.conj().T
        mat = 0.5 * (mat + mat.conj().T)
    elif kind == "bad-trace":
        mat = 1.01 * mat
    elif kind == "malformed-json":
        text = json.dumps(_state_doc(mat, (2, 2)))
        return text[: int(rng.integers(10, len(text) - 1))], 65
    elif kind == "bad-dims":
        mat = _random_mixed(rng, 6)
        return json.dumps(_state_doc(mat, (2, 3))), 2
    return json.dumps(_state_doc(mat, (2, 2))), 2


def _half_verify(rng, count: int) -> List[bool]:
    flags = [i < count // 2 for i in range(count)]
    return [flags[i] for i in rng.permutation(count)]


def states_block(seed: int, block: int, workdir: Path) -> List[Request]:
    rng = _rng("states", seed, block)
    requests = []
    serial = 0

    def check_request(text: str, state: str, code: int, verify: bool, expect_ppt=None):
        nonlocal serial
        path = workdir / f"b{block}-{serial}.json"
        serial += 1
        path.write_text(text, encoding="utf-8")
        argv = ["check-state", str(path)] + (["--verify"] if verify else [])
        return Request("check-state", argv, expect_code=code, verify=verify, state=state,
                       expect_ppt=expect_ppt, files=[path])

    makers = {
        "mixed": lambda: (_random_mixed(rng), None),
        "pure": lambda: (_random_pure(rng), None),
        "separable": lambda: (_random_separable(rng), None),
        "family": lambda: (
            _family_matrix(*_family_tuple(rng, "squeezed" if rng.uniform() < 0.5 else "coherent")),
            None,
        ),
        "near-floor": lambda: _near_floor(rng),
    }
    for kind, count in CHECK_KINDS.items():
        for verify in _half_verify(rng, count):
            mat, ppt = makers[kind]()
            requests.append(check_request(json.dumps(_state_doc(mat, (2, 2))), kind, 0,
                                          verify, ppt))
    for j, verify in enumerate(_half_verify(rng, CHECK_INVALID_PER_BLOCK)):
        kind = INVALID_FILE_KINDS[(CHECK_INVALID_PER_BLOCK * block + j) % len(INVALID_FILE_KINDS)]
        text, code = _invalid_doc(rng, kind)
        requests.append(check_request(text, "invalid:" + kind, code, verify))

    def family_request(values, state, code, verify):
        # "--y=-1e-05" and not "--y -1e-05": argparse takes a negative number
        # in exponent form for an option and exits with a usage error.
        argv = ["family"] + [f"--{k}={v!r}" for k, v in zip(("x1", "x2", "x3", "y"), values)]
        if verify:
            argv.append("--verify")
        return Request("family", argv, expect_code=code, verify=verify, state=state)

    for kind, count in FAMILY_KINDS.items():
        for verify in _half_verify(rng, count):
            requests.append(family_request(_family_tuple(rng, kind), "family:" + kind, 0, verify))
    for kind, verify in zip(FAMILY_INVALID_KINDS, _half_verify(rng, len(FAMILY_INVALID_KINDS))):
        x1, x2, x3, y = _family_tuple(rng, "coherent")
        if kind == "bad-sum":
            x3 += 0.01
        else:
            y = 1.01 * math.sqrt(x1 * x3) + 0.01
        requests.append(family_request((x1, x2, x3, y), "invalid:" + kind, 2, verify))
    return [requests[i] for i in rng.permutation(len(requests))]


def states_warmup(workdir: Path) -> List[Request]:
    """One request of each states kind: check-state and family, with and without --verify."""
    rng = np.random.default_rng(0)
    path = workdir / "warmup.json"
    path.write_text(json.dumps(_state_doc(_random_mixed(rng), (2, 2))), encoding="utf-8")
    family = ["family", "--x1", "0.9", "--x2", "0", "--x3", "0.1", "--y", "-0.3"]
    return [
        Request("check-state", ["check-state", str(path)], state="mixed", files=[path]),
        Request("check-state", ["check-state", str(path), "--verify"], verify=True, state="mixed"),
        Request("family", family, state="family:squeezed"),
        Request("family", family + ["--verify"], verify=True, state="family:squeezed"),
    ]


BLOCKS = {"scan": scan_block, "verify": verify_block, "states": states_block}


# --- input properties -----------------------------------------------------


def _histogram(values, bins):
    labels = [str(lo) if lo == hi else f"{lo}-{hi}" for lo, hi in bins]
    counts = dict.fromkeys(labels, 0)
    for v in values:
        for label, (lo, hi) in zip(labels, bins):
            if lo <= v <= hi:
                counts[label] += 1
                break
    return counts


def input_properties(workload: str, requests: List[Request]) -> dict:
    """What the generated inputs look like, for a later change to cite."""
    props = {"requests": len(requests), "items": sum(r.items for r in requests)}
    if workload in ("scan", "verify"):
        props["photon_histogram"] = _histogram([r.photons for r in requests], PHOTON_BINS)
        props["steps_histogram"] = _histogram([r.steps for r in requests], STEP_BINS)
        props["json_share"] = sum(r.fmt == "json" for r in requests) / len(requests)
        seen, repeated_rows = set(), 0
        for r in requests:
            if r.photons in seen:
                repeated_rows += r.items
            seen.add(r.photons)
        props["rows_with_photon_number_seen_before_share"] = repeated_rows / props["items"]
        props["distinct_photon_numbers"] = len(seen)
    else:
        kinds = Counter()
        for r in requests:
            if r.state.startswith("invalid:"):
                kinds["invalid"] += 1
            elif r.state.startswith("family"):
                kinds["family"] += 1
            else:
                kinds["generic"] += 1
        props["state_shares"] = {k: kinds[k] / len(requests) for k in ("family", "generic", "invalid")}
        props["verify_share"] = sum(r.verify for r in requests) / len(requests)
        props["check_state_share"] = sum(r.kind == "check-state" for r in requests) / len(requests)
        props["kinds"] = dict(sorted(Counter(r.state for r in requests).items()))
    return props
