"""Analytic per-iteration cost model for the simulated training algorithms.

Everything is counted in tensor ELEMENTS, never seconds or FLOPs: element
counts are exactly checkable against the simulator's collective and compute
counters.  For a layer mapping ``d_in`` inputs to ``d_out`` outputs, the
gradient holds ``N_g = d_out * d_in`` elements and the two curvature factors
hold ``N_f = d_in^2 + d_out^2``.

The seven stages are declared once, as the fields of :class:`StepCounters`,
the stage record: a simulated step returns one, and :class:`CostReport` and
the trainer's metrics row extend it.  Costs are quoted per
second-order-update iteration (the iteration where factors are rebuilt and
decompositions recomputed); :func:`amortized_cost` spreads the
factor/decomposition stages over their staleness intervals.

Caveat recorded in every report: InverseComp is counted in factor elements
like every other stage, although an eigendecomposition is cubic in the
factor dimension, not linear in its element count.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import NamedTuple, Sequence

from .errors import ArgumentError, DataFormatError

ALGORITHMS = ("ssgd", "mpd_kfac_co", "mpd_kfac_mo", "dp_kfac")


@dataclass
class StepCounters:
    """Element counts per stage of one step.  Compute counters are
    per-worker maxima; communication counters are cluster totals."""

    gradcomp: int = 0
    factorcomp: int = 0
    inversecomp: int = 0
    gradcomm: int = 0
    factorcomm: int = 0
    predcomm: int = 0
    inversecomm: int = 0


# the stage names, in metrics-CSV order
STAGES = tuple(f.name for f in fields(StepCounters))

# the model's caveats, printed with every cost report
NOTES = (
    "inversecomm for mpd_kfac_co counts the broadcast decomposition payload "
    "(eigenbases plus eigenvalue vectors, or damped inverses); the classic "
    "complexity table omits this stage",
    "compute stages are element counts, not FLOPs; decomposition work is "
    "cubic in factor dimension",
)


class LayerDims(NamedTuple):
    """One preconditioned layer, homogeneous bias column included in d_in."""

    d_in: int
    d_out: int


def layer_counts(dims: LayerDims) -> tuple[int, int]:
    """(gradient elements, factor elements) for one layer."""
    if dims.d_in < 1 or dims.d_out < 1:
        raise ArgumentError(f"layer dimensions must be >= 1, got {dims}")
    n_g = dims.d_out * dims.d_in
    n_f = dims.d_in ** 2 + dims.d_out ** 2
    return n_g, n_f


def totals(layers: Sequence[LayerDims]) -> tuple[int, int]:
    n_g = n_f = 0
    for dims in layers:
        g, f = layer_counts(dims)
        n_g += g
        n_f += f
    return n_g, n_f


def round_robin_owners(n_layers: int, n_workers: int) -> tuple[int, ...]:
    """Circular placement: layer i is owned by worker i mod P (0-based), so
    worker p owns layers p, p+P, p+2P, ...  Linear in the layer count for
    any worker count."""
    if n_layers < 0 or n_workers < 1:
        raise ArgumentError("need n_layers >= 0 and n_workers >= 1")
    return tuple(i % n_workers for i in range(n_layers))


@dataclass(kw_only=True)
class CostReport(StepCounters):
    """Element counts for one (algorithm, worker count) pair.

    ``factorcomp``/``inversecomp`` are the realized per-worker maxima under
    the round-robin partition; the ``*_ideal`` fields carry the idealized
    ``N_f / P`` values.  ``memory`` follows the classic table (idealized);
    ``memory_realized`` substitutes the realized partition maximum.
    """

    algorithm: str
    workers: int
    n_g: int
    n_f: int
    factorcomp_ideal: float
    inversecomp_ideal: float
    memory: float
    memory_realized: int


def algorithm_cost(
    layers: Sequence[LayerDims],
    workers: int,
    algorithm: str,
    inv_type: str = "eigen",
) -> CostReport:
    """Per-iteration element counts for one algorithm on one cluster size."""
    if algorithm not in ALGORITHMS:
        raise ArgumentError(f"unknown algorithm {algorithm!r}")
    if workers < 1:
        raise ArgumentError("worker count must be >= 1")
    per_layer = [layer_counts(d) for d in layers]
    n_g = sum(g for g, _ in per_layer)
    n_f = sum(f for _, f in per_layer)
    # only the first min(P, L) workers own a layer
    owned_f = [0] * min(workers, len(layers))
    for owner, (_, f) in zip(round_robin_owners(len(layers), workers), per_layer):
        owned_f[owner] += f
    realized_max = max(owned_f, default=0)
    if inv_type == "eigen":
        payload = sum(f + d.d_in + d.d_out for (_, f), d in zip(per_layer, layers))
    elif inv_type == "inverse":
        payload = n_f
    else:
        raise ArgumentError(f"unknown inv_type {inv_type!r}")

    second_order = algorithm != "ssgd"
    mpd = algorithm in ("mpd_kfac_co", "mpd_kfac_mo")
    if second_order:
        # every worker builds every layer's factors under MPD-KFAC, and each
        # owner only its own layers' under DP-KFAC; each owner refreshes its own
        ideal = n_f / workers
        factorcomp, factorcomp_ideal = (n_f, float(n_f)) if mpd else (realized_max, ideal)
        inversecomp, inversecomp_ideal = realized_max, ideal
    else:
        factorcomp, factorcomp_ideal, inversecomp, inversecomp_ideal = 0, 0.0, 0, 0.0
    return CostReport(
        algorithm=algorithm, workers=workers, n_g=n_g, n_f=n_f,
        gradcomp=n_g, factorcomp=factorcomp, inversecomp=inversecomp,
        factorcomp_ideal=factorcomp_ideal, inversecomp_ideal=inversecomp_ideal,
        gradcomm=2 * (workers - 1) * n_g,
        factorcomm=2 * (workers - 1) * n_f if mpd else 0,
        predcomm=(workers - 1) * n_g if algorithm in ("mpd_kfac_mo", "dp_kfac") else 0,
        inversecomm=(workers - 1) * payload if algorithm == "mpd_kfac_co" else 0,
        # the classic table: a worker holds as many factor elements as it builds
        memory=2.0 * (n_g + factorcomp_ideal) if second_order else float(n_g),
        memory_realized=2 * (n_g + factorcomp) if second_order else n_g,
    )


def amortized_cost(report: CostReport, f_freq: int, k_freq: int) -> dict:
    """Average per-iteration costs when factor stages run every ``f_freq``
    iterations and decomposition stages every ``k_freq``."""
    if f_freq < 1 or k_freq < 1:
        raise ArgumentError("staleness intervals must be >= 1")
    every = {"factorcomp": f_freq, "factorcomm": f_freq,
             "inversecomp": k_freq, "inversecomm": k_freq}
    return {"algorithm": report.algorithm, "workers": report.workers,
            "f_freq": f_freq, "k_freq": k_freq,
            **{s: getattr(report, s) / every.get(s, 1) for s in STAGES}}


def counter_mismatches(report: CostReport, counters: StepCounters) -> list[str]:
    """Every stage where a simulator step's counters differ from the
    analytic report (exact integers), in stage order.  Only meaningful on a
    full second-order-update iteration (factor refresh and decomposition
    recompute both fired)."""
    mismatches = []
    for stage in STAGES:
        analytic, simulated = getattr(report, stage), getattr(counters, stage)
        if analytic != simulated:
            mismatches.append(f"{stage}: analytic {analytic} != simulated {simulated} "
                              f"(delta {simulated - analytic:+d})")
    return mismatches


def load_manifest(path) -> list[LayerDims]:
    """Parse a layer manifest: one ``d_in d_out`` pair per line, ``#`` comments."""
    layers = []
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise DataFormatError(f"{path}: cannot read manifest: {reason or exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise DataFormatError(
                f"{path}:{lineno}: expected 'd_in d_out', got {raw.strip()!r}"
            )
        try:
            d_in, d_out = int(fields[0]), int(fields[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: non-integer dimension in {raw.strip()!r}") from exc
        if d_in < 1 or d_out < 1:
            raise DataFormatError(f"{path}:{lineno}: dimensions must be >= 1")
        layers.append(LayerDims(d_in, d_out))
    if not layers:
        raise DataFormatError(f"{path}: manifest holds no layers")
    return layers


def builtin_manifest_path(name: str) -> Path:
    """Path of a manifest bundled with the package (currently: resnet50)."""
    ref = resources.files("kfaclab").joinpath(f"data/{name}_manifest.txt")
    if not ref.is_file():
        raise ArgumentError(f"no bundled manifest named {name!r}")
    return Path(str(ref))


def resolve_manifest(name_or_path: str) -> list[LayerDims]:
    """Accept either a filesystem path or a bundled manifest name."""
    p = Path(name_or_path)
    if p.exists():
        return load_manifest(p)
    try:
        return load_manifest(builtin_manifest_path(name_or_path))
    except ArgumentError:
        raise DataFormatError(f"manifest {name_or_path!r}: no such file or bundled name")
