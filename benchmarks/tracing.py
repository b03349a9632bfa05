"""Span recorder for the traced benchmark run.

``install`` wraps every public function of the package layers ``cli``,
``dynamics``, ``states``, ``criteria`` and ``linalg`` on every name a caller
binds it to (``cli`` and ``criteria`` import functions by name, so
``cavsqueeze.cli.xi_squared`` is wrapped as well as
``cavsqueeze.criteria.xi_squared``), the constructors of the validating
dataclasses and their public methods.  ``xi_squared`` is split by its
``policy`` argument.  Each span records its name, start, end, parent span
and request id into flat arrays held in memory; ``write_spans`` stores them
when the run ends.  ``uninstall`` puts every original back, so the wrappers
exist only while the traced requests run.

numpy's Hermitian eigensolvers are counted, not spanned, so a layer's self
time still includes the LAPACK work it asks for.
"""

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dynamics", "states", "criteria", "linalg")

# Spans reported as per-layer metrics (calls and self seconds each).  A name
# a later version no longer has reports zero calls; a new one is traced and
# written out but not reported until it is listed here.
REPORTED = (
    "cli.main",
    "cli.build_parser",
    "cli.build_scan_rows",
    "dynamics.ModelConfig",
    "dynamics.rabi_frequency",
    "dynamics.annihilation",
    "dynamics.build_hamiltonian",
    "dynamics.evolve_exact",
    "dynamics.closed_form_coeffs",
    "states.DensityMatrix",
    "states.FamilyCoeffs",
    "states.density_from_pure",
    "states.partial_trace",
    "states.partial_transpose",
    "states.family_density",
    "states.family_coeffs_from_density",
    "states.load_density_matrix",
    "criteria.collective_spin",
    "criteria.SpinFrame",
    "criteria.SpinFrame.canonical",
    "criteria.SpinMoments.covariance",
    "criteria.spin_moments",
    "criteria.xi_squared_in_frame",
    "criteria.xi_squared.perp",
    "criteria.xi_squared.global",
    "criteria.xi2_closed_n1",
    "criteria.negativity",
    "criteria.ppt_entangled",
    "criteria.diagonal_family_entangled",
    "criteria.xi2_family",
    "criteria.family_squeezing_condition",
    "linalg.kron",
    "linalg.hermitian_eig",
    "linalg.evolution_operator",
)

# Operation count of a dense Hermitian eigendecomposition with eigenvectors:
# about 9 n^3 complex operations (Golub and Van Loan's estimate for the
# symmetric QR algorithm), each taken as 4 real flops.  Derived from the
# dimension of each call, not measured: reported as "computed".
FLOPS_PER_EIG_CUBE = 36

# Counts and ratios reported next to the span metrics: (name, unit, better).
DERIVED = (
    ("linalg.hermitian_eig.dim_max", "rows", "lower"),
    ("linalg.hermitian_eig.flops_computed", "flop", "lower"),
    ("linalg.eigensolves_per_verify_row", "count", "lower"),
    ("criteria.pt_eigensolves_per_state", "count", "lower"),
    ("states.validations_per_row", "count", "lower"),
    ("dynamics.evolve_exact.subtree_self_share", "ratio", "lower"),
    ("criteria.xi_squared.global.verify_time_share", "ratio", "lower"),
    ("tracing.spans", "count", "lower"),
    ("tracing.items_per_s_untraced", "1/s", "higher"),
    ("tracing.items_per_s_traced", "1/s", "higher"),
    ("tracing.overhead_share", "ratio", "lower"),
)


def per_layer_declaration():
    """The per-layer metric list of BENCHMARK.json, in report order."""
    spans = [
        {"name": f"{name}.{field}", "unit": unit, "better": "lower"}
        for name in REPORTED
        for field, unit in (("calls", "count"), ("self_s", "s"))
    ]
    return spans + [{"name": n, "unit": u, "better": b} for n, u, b in DERIVED]


class Recorder:
    """Spans of the traced requests, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.request_id = -1
        self.eig_dims = array("i")
        self.lapack_eigensolves = 0
        self.lapack_eigensolves_in_evolve = 0
        self._evolve_id = self.name_id("dynamics.evolve_exact")

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def enter(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(perf_counter())
        return index

    def leave(self, index: int):
        self.end[index] = perf_counter()
        self.stack.pop()

    def count_eigensolve(self):
        if not self.stack:  # the benchmark's own input generation
            return
        self.lapack_eigensolves += 1
        if any(self.name[i] == self._evolve_id for i in self.stack):
            self.lapack_eigensolves_in_evolve += 1


def _wrap(rec: Recorder, fn, pick):
    """``fn`` inside a span whose name id ``pick(args, kwargs)`` returns."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.enter(pick(args, kwargs))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave(index)

    return traced


def _named(rec, name, fn):
    name_id = rec.name_id(name)
    return _wrap(rec, fn, lambda args, kwargs: name_id)


def _xi_squared(rec, fn, criteria):
    ids = {
        criteria.PERP_OPTIMAL: rec.name_id("criteria.xi_squared.perp"),
        criteria.GLOBAL: rec.name_id("criteria.xi_squared.global"),
    }
    other = rec.name_id("criteria.xi_squared.other")
    default = inspect.signature(fn).parameters["policy"].default

    def pick(args, kwargs):
        policy = kwargs.get("policy", args[1] if len(args) > 1 else default)
        return ids.get(policy, other)

    return _wrap(rec, fn, pick)


def _hermitian_eig(rec, fn):
    name_id = rec.name_id("linalg.hermitian_eig")

    def pick(args, kwargs):
        shape = np.shape(args[0] if args else kwargs["h"])
        rec.eig_dims.append(shape[0] if shape else 0)
        return name_id

    return _wrap(rec, fn, pick)


def _counted(rec, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.count_eigensolve()
        return fn(*args, **kwargs)

    return counted


def install(rec: Recorder, package):
    """Wrap the package layers; returns the patches ``uninstall`` reverts."""
    modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    patches = []

    def patch(owner, attr, replacement):
        patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def rebind(original, replacement):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    patch(ns, attr, replacement)

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj):
                if name == "criteria.xi_squared":
                    wrapper = _xi_squared(rec, obj, mod)
                elif name == "linalg.hermitian_eig":
                    wrapper = _hermitian_eig(rec, obj)
                else:
                    wrapper = _named(rec, name, obj)
                rebind(obj, wrapper)
            elif inspect.isclass(obj):
                if "__post_init__" in vars(obj):  # a validating constructor
                    patch(obj, "__init__", _named(rec, name, obj.__init__))
                for member_name, member in list(vars(obj).items()):
                    if member_name.startswith("_"):
                        continue
                    if inspect.isfunction(member):
                        patch(obj, member_name, _named(rec, f"{name}.{member_name}", member))
                    elif isinstance(member, classmethod):
                        wrapped = _named(rec, f"{name}.{member_name}", member.__func__)
                        patch(obj, member_name, classmethod(wrapped))
    for solver in ("eigh", "eigvalsh"):
        patch(np.linalg, solver, _counted(rec, getattr(np.linalg, solver)))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


def _as_numpy(rec: Recorder):
    start = np.frombuffer(rec.start, dtype=np.float64)
    end = np.frombuffer(rec.end, dtype=np.float64)
    names = np.frombuffer(rec.name, dtype=np.intc)
    parent = np.frombuffer(rec.parent, dtype=np.intc)
    duration = end - start
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return start, end, names, parent, duration, duration - child


def summarize(rec: Recorder, items: int, verify_requests) -> dict:
    """Per-layer metric values of one traced pass.

    ``items`` is the work the traced requests completed (grid rows, or
    checked states); ``verify_requests`` are the ids of the valid
    ``check-state --verify`` requests, whose time the global search shares.
    """
    start, end, names, parent, duration, self_time = _as_numpy(rec)
    size = len(rec.names)
    calls = np.bincount(names, minlength=size)
    self_s = np.bincount(names, weights=self_time, minlength=size)
    ids = rec._ids
    out = {}
    for name in REPORTED:
        i = ids.get(name)
        out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
        out[f"{name}.self_s"] = float(self_s[i]) if i is not None else 0.0

    def count(name):
        return int(calls[ids[name]]) if name in ids else 0

    dims = np.frombuffer(rec.eig_dims, dtype=np.intc).astype(np.int64)
    out["linalg.hermitian_eig.dim_max"] = int(dims.max()) if dims.size else 0
    out["linalg.hermitian_eig.flops_computed"] = int(FLOPS_PER_EIG_CUBE * np.sum(dims**3))
    evolves = count("dynamics.evolve_exact")
    out["linalg.eigensolves_per_verify_row"] = (
        rec.lapack_eigensolves_in_evolve / evolves if evolves else 0.0
    )
    eig_id = ids.get("linalg.hermitian_eig")
    pt_parents = [ids[n] for n in ("criteria.negativity", "criteria.ppt_entangled") if n in ids]
    states_diagnosed = max(count("criteria.negativity"), count("criteria.ppt_entangled"))
    if eig_id is not None and pt_parents and states_diagnosed:
        under_pt = (names == eig_id) & (parent >= 0)
        under_pt[under_pt] = np.isin(names[parent[under_pt]], pt_parents)
        out["criteria.pt_eigensolves_per_state"] = int(under_pt.sum()) / states_diagnosed
    else:
        out["criteria.pt_eigensolves_per_state"] = 0.0
    out["states.validations_per_row"] = count("states.DensityMatrix") / items if items else 0.0

    roots = parent < 0
    total = float(duration[roots].sum())
    cumulative_self = np.concatenate([[0.0], np.cumsum(self_time)])
    in_evolve = 0.0
    if "dynamics.evolve_exact" in ids:
        # Spans are stored in the order they open, so a span's subtree is the
        # run of spans that open before it closes.
        for i in np.flatnonzero(names == ids["dynamics.evolve_exact"]):
            last = int(np.searchsorted(start, end[i], side="left"))
            in_evolve += cumulative_self[last] - cumulative_self[i]
    out["dynamics.evolve_exact.subtree_self_share"] = float(in_evolve / total) if total else 0.0
    request = np.frombuffer(rec.request, dtype=np.intc)
    verify_roots = roots & np.isin(request, list(verify_requests))
    verify_time = float(duration[verify_roots].sum())
    global_time = 0.0
    if "criteria.xi_squared.global" in ids:
        is_global = (names == ids["criteria.xi_squared.global"]) & np.isin(
            request, list(verify_requests)
        )
        global_time = float(duration[is_global].sum())
    out["criteria.xi_squared.global.verify_time_share"] = (
        global_time / verify_time if verify_time else 0.0
    )
    out["tracing.spans"] = int(len(rec.start))
    return out


def span_counts(rec: Recorder) -> dict:
    names = np.frombuffer(rec.name, dtype=np.intc)
    calls = np.bincount(names, minlength=len(rec.names))
    return {name: int(calls[i]) for i, name in enumerate(rec.names) if calls[i]}


def write_spans(rec: Recorder, path):
    """All spans as gzip CSV: id, name, parent id, request id, start and end in seconds."""
    start, end, names, parent, _, _ = _as_numpy(rec)
    origin = float(start[0]) if start.size else 0.0
    request = np.frombuffer(rec.request, dtype=np.intc)
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
        fh.write("span,name,parent,request,start_s,end_s\n")
        for i in range(start.size):
            fh.write(
                f"{i},{rec.names[names[i]]},{parent[i]},{request[i]},"
                f"{start[i] - origin:.9f},{end[i] - origin:.9f}\n"
            )

