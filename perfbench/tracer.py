"""Out-of-program tracing: spans and counts at the public functions of nlametro.

The tracer wraps every public function of each module (a *layer*) from
outside the package and patches the wrapper into every ``nlametro`` namespace
that holds the original, because the package imports names with
``from .x import y``.  Nothing under ``src/`` is modified; :meth:`Tracer.uninstall`
restores the originals, so untraced code runs with no wrapper at all.

Each call records a span (name, start, end, parent) in flat arrays.  A
layer's self time is its span time minus the time of its direct child spans.
Counts computed from argument and result sizes (``*_computed``,
``probes.levels_sum``) are derived from array shapes, not measured: they
repeat exactly between runs of the same code.
"""

from __future__ import annotations

import array
import collections
import functools
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "cli",
    "probes",
    "fock",
    "instrument",
    "fisher",
    "measurements",
    "montecarlo",
    "oracles",
    "selfcheck",
)

# Functions of these layers are traced under a shorter span name.
_RENAMED = {
    "selfcheck.check_identity_suite": "selfcheck.identity",
    "selfcheck.check_oracle_suite": "selfcheck.oracle",
    "selfcheck.check_detector_suite": "selfcheck.detector",
    "selfcheck.check_figure_behavior": "selfcheck.figure",
    "selfcheck.check_meter_suite": "selfcheck.meter",
}

# cli rendering spans whose self time is summed into ``cli.render_s``.
_RENDER_SPANS = ("cli.render_csv", "cli.render_json")

# Probe dimensions at which ``fisher.qfi_effective`` time per call is reported.
QFI_DIMS = (17, 149)


def _public_functions(module):
    """Public plain functions defined in ``module`` (generators excluded)."""
    for attr, value in sorted(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__ or inspect.isgeneratorfunction(value):
            continue
        yield attr, value


class Tracer:
    """Span recorder over the nlametro layers; install, run, aggregate, reset."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counts (wrappers stay installed)."""
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack = [-1]
        self.counts: collections.Counter = collections.Counter()

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` recording a span per call.

        ``measure(counts, args, result, seconds)`` may add computed counts; an
        exception leaving the span is counted as ``<name>.raised.<Type>``.
        """
        nid = self._intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                self.end[idx] = t1
                self._stack.pop()
            if measure is not None:
                measure(self.counts, args, result, t1 - t0)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap each layer's public functions in every nlametro namespace."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import nlametro
        from nlametro.fock import DensityOperator
        from nlametro.probes import ProbeSpec

        modules = [sys.modules[f"nlametro.{layer}"] for layer in LAYERS]
        namespaces = [nlametro] + [
            mod for key, mod in sorted(sys.modules.items())
            if key.startswith("nlametro.") and mod is not None
        ]
        replacements: dict[int, object] = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, fn in _public_functions(module):
                name = _RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                replacements[id(fn)] = self.wrap(name, fn, _MEASURES.get(name))
        for namespace in namespaces:
            for attr, value in list(vars(namespace).items()):
                wrapped = replacements.get(id(value))
                if wrapped is not None:
                    self._patch(namespace, attr, wrapped)
        # Methods: probe construction and dense-operator construction.
        self._patch(ProbeSpec, "build", self.wrap(
            "probes.build", ProbeSpec.build, _MEASURES["probes.build"]))
        self._patch(DensityOperator, "__post_init__", self.wrap(
            "fock.DensityOperator", DensityOperator.__post_init__,
            _MEASURES["fock.DensityOperator"]))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """Recorded spans as arrays (index order is start order)."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def per_name(self) -> dict[str, dict]:
        """Calls, inclusive and self seconds per span name."""
        sp = self.spans()
        n_names = len(self.names)
        dur = sp["end"] - sp["start"]
        has_parent = sp["parent"] >= 0
        child = np.bincount(
            sp["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        own = dur - child
        calls = np.bincount(sp["name_id"], minlength=n_names)
        incl = np.bincount(sp["name_id"], weights=dur, minlength=n_names)
        self_s = np.bincount(sp["name_id"], weights=own, minlength=n_names)
        return {
            name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def calls_within(self, inner: str, outer: str) -> int:
        """Number of ``inner`` spans that start inside an ``outer`` span."""
        if inner not in self._name_ids or outer not in self._name_ids:
            return 0
        sp = self.spans()
        is_outer = sp["name_id"] == self._name_ids[outer]
        o_start, o_end = sp["start"][is_outer], sp["end"][is_outer]
        if o_start.size == 0:
            return 0
        i_start = sp["start"][sp["name_id"] == self._name_ids[inner]]
        pos = np.searchsorted(o_start, i_start, side="right") - 1
        inside = (pos >= 0) & (i_start <= o_end[np.maximum(pos, 0)])
        return int(inside.sum())


# -- computed counts ----------------------------------------------------------

def _eigh_flops(counts, args, result, seconds):
    counts["fock.eigh.flops_computed"] += args[0].dim ** 3


def _dense_bytes(counts, args, result, seconds):
    counts["fock.dense_bytes_computed"] += 16 * args[0].dim ** 2


def _wavefunction_cells(counts, args, result, seconds):
    counts["fock.wavefunction_cells_computed"] += int(np.size(result))


def _levels(counts, args, result, seconds):
    counts["probes.levels_sum"] += result.dim


def _qfi_by_dim(counts, args, result, seconds):
    dim = args[0].dim
    counts[f"fisher.qfi_effective.calls.d{dim}"] += 1
    counts[f"fisher.qfi_effective.incl_s.d{dim}"] += seconds


_MEASURES = {
    "fock.eigh": _eigh_flops,
    "fock.DensityOperator": _dense_bytes,
    "fock.wavefunction_matrix": _wavefunction_cells,
    "probes.build": _levels,
    "fisher.qfi_effective": _qfi_by_dim,
}


# Span statistics reported per layer: calls, self_s (own time) or incl_s.
SPAN_METRICS = {
    "probes.build": ("calls", "self_s"),
    "fock.eigh": ("calls", "self_s"),
    "fock.DensityOperator": ("calls",),
    "fock.root_fidelity_deficit": ("calls", "self_s"),
    "fock.wavefunction_matrix": ("calls", "self_s"),
    "fock.adaptive_quadrature_grid": ("calls", "self_s"),
    "instrument.kraus_diagonal": ("calls", "self_s"),
    "instrument.kraus_diagonal_derivative": ("calls",),
    "instrument.unconditional_state": ("self_s",),
    "instrument.unconditional_state_derivative": ("self_s",),
    "instrument.conditional_state": ("calls", "self_s"),
    "fisher.qfi_effective": ("calls", "self_s"),
    "fisher.qfi_unconditional": ("incl_s",),
    "fisher.qfi_mixed": ("self_s",),
    "fisher.qfi_branch": ("calls",),
    "fisher.qfi_joint_meter": ("self_s",),
    "measurements.fi_homodyne": ("self_s",),
    "measurements.sequential_fi": ("self_s",),
    "measurements.homodyne_density": ("calls", "self_s"),
    "measurements.photon_counting_dist": ("calls",),
    "montecarlo.sample_shots": ("self_s",),
    "montecarlo.mle_estimate": ("calls", "self_s"),
    "montecarlo.run_crb_experiment": ("self_s",),
    "oracles.qfi_fd_pure": ("calls", "self_s"),
    "oracles.qfi_fd_mixed": ("calls", "self_s"),
    "oracles.joint_fi_direct": ("self_s",),
    "oracles.generate_golden_reports": ("incl_s",),
    "selfcheck.identity": ("incl_s",),
    "selfcheck.oracle": ("incl_s",),
    "selfcheck.detector": ("incl_s",),
    "selfcheck.figure": ("incl_s",),
    "selfcheck.meter": ("incl_s",),
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by their benchmark names."""
    agg = tracer.per_name()
    counts = tracer.counts

    def stat(name: str, key: str) -> float:
        return agg.get(name, {}).get(key, 0)

    out: dict[str, float] = {
        # Own time of the cli layer: main and the cmd_* handlers it dispatches
        # to (argument parsing, row loops), rendering excluded.
        "cli.main.self_s": sum(
            v["self_s"] for name, v in agg.items()
            if name.startswith("cli.") and name not in _RENDER_SPANS
        ),
        "cli.render_s": sum(stat(name, "self_s") for name in _RENDER_SPANS),
        "probes.levels_sum": counts["probes.levels_sum"],
        "fock.eigh.flops_computed": counts["fock.eigh.flops_computed"],
        "fock.dense_bytes_computed": counts["fock.dense_bytes_computed"],
        "fock.wavefunction_cells_computed": counts["fock.wavefunction_cells_computed"],
        "oracles.step_refusals": sum(
            counts[f"oracles.{fn}.raised.StepTooSmall"] for fn in ("qfi_fd_pure", "qfi_fd_mixed")
        ),
    }
    for name, keys in SPAN_METRICS.items():
        for key in keys:
            out[f"{name}.{key}"] = stat(name, key)
    for dim in QFI_DIMS:
        calls = counts[f"fisher.qfi_effective.calls.d{dim}"]
        incl = counts[f"fisher.qfi_effective.incl_s.d{dim}"]
        out[f"fisher.qfi_effective.ms_per_call.d{dim}"] = 1e3 * incl / calls if calls else 0.0
    mle_calls = stat("montecarlo.mle_estimate", "calls")
    kraus_in_mle = tracer.calls_within("instrument.kraus_diagonal", "montecarlo.mle_estimate")
    out["montecarlo.kraus_calls_per_mle"] = kraus_in_mle / mle_calls if mle_calls else 0.0
    return out
