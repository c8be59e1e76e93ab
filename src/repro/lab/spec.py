"""Declarative sweep specifications.

A :class:`SweepSpec` names a *task* (``herd``, ``chaos``, ``figure`` —
see :mod:`repro.lab.tasks`), a dict of base parameters, and a list of
:class:`Axis` objects that vary parameters across points.  Expanding a
spec yields :class:`Point` objects — one fully resolved parameter set
per measurement cell, each with

* a **label**: a stable, human-readable id (``herd(get_fraction=0.5,
  value_size=32)``) used as the baseline key, so a captured baseline
  survives code changes;
* a **seed**: derived deterministically from the spec seed and the
  label via :func:`repro.faults.rng.derive_seed`, unless the point's
  parameters pin ``seed`` explicitly (e.g. a chaos seed axis);
* later, a **cache key** (see :mod:`repro.lab.store`) that also folds
  in the code version, so results are recomputed when the code changes
  but never when only the wall clock did.

Axes compose two ways: ``grid`` axes take the cross product (every
combination), ``zip`` axes advance in lockstep with each other (they
must have equal lengths).  Zip axes are expanded *within* each grid
combination, so a spec may mix both.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.faults.rng import derive_seed


def canonical(value: Any) -> str:
    """Deterministic JSON for hashing and labels (sorted keys)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Axis:
    """One swept parameter: ``name`` takes each value in ``values``.

    ``mode`` is ``"grid"`` (cross product with the other grid axes) or
    ``"zip"`` (advance in lockstep with the other zip axes).
    """

    name: str
    values: Sequence[Any]
    mode: str = "grid"

    def __post_init__(self) -> None:
        if self.mode not in ("grid", "zip"):
            raise ValueError("axis mode must be 'grid' or 'zip'; got %r" % (self.mode,))
        if not self.values:
            raise ValueError("axis %r has no values" % (self.name,))


@dataclass(frozen=True)
class Point:
    """One fully resolved measurement cell of a sweep."""

    index: int
    task: str
    params: Dict[str, Any]
    seed: int

    @property
    def label(self) -> str:
        """Stable human-readable id; the baseline key for this point."""
        inner = ",".join(
            "%s=%s" % (k, json.dumps(self.params[k], sort_keys=True))
            for k in sorted(self.params)
        )
        return "%s(%s)" % (self.task, inner)

    def identity(self) -> Dict[str, Any]:
        """The fields that define *what* this point measures."""
        return {"task": self.task, "params": self.params, "seed": self.seed}


@dataclass
class SweepSpec:
    """A named sweep: task + base params + axes + seed."""

    name: str
    task: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: List[Axis] = field(default_factory=list)
    #: spec-level seed; per-point seeds are derived from it and the
    #: point label, so adding an axis never reshuffles existing points
    seed: int = 0
    description: str = ""

    def __post_init__(self) -> None:
        from repro.lab.tasks import TASKS  # deferred: avoid import cycle

        if self.task not in TASKS:
            raise ValueError(
                "unknown task %r (known: %s)" % (self.task, ", ".join(sorted(TASKS)))
            )
        zip_lengths = {len(a.values) for a in self.axes if a.mode == "zip"}
        if len(zip_lengths) > 1:
            raise ValueError(
                "zip axes must have equal lengths; got %s"
                % sorted(zip_lengths)
            )
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("duplicate axis names: %s" % names)

    def points(self) -> List[Point]:
        """Expand the axes into the full, ordered list of points."""
        grid_axes = [a for a in self.axes if a.mode == "grid"]
        zip_axes = [a for a in self.axes if a.mode == "zip"]
        combos: Iterable[Sequence[Any]] = itertools.product(
            *[a.values for a in grid_axes]
        ) if grid_axes else [()]
        zipped: List[Sequence[Any]] = (
            list(zip(*[a.values for a in zip_axes])) if zip_axes else [()]
        )
        out: List[Point] = []
        for combo in combos:
            for row in zipped:
                params = dict(self.base)
                params.update(zip((a.name for a in grid_axes), combo))
                params.update(zip((a.name for a in zip_axes), row))
                point = Point(len(out), self.task, params, 0)
                seed = params.get("seed")
                if seed is None:
                    seed = derive_seed(self.seed, point.label)
                out.append(Point(len(out), self.task, params, int(seed)))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": 1,
            "name": self.name,
            "task": self.task,
            "base": self.base,
            "axes": [
                {"name": a.name, "values": list(a.values), "mode": a.mode}
                for a in self.axes
            ],
            "seed": self.seed,
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        try:
            axes = [
                Axis(a["name"], a["values"], a.get("mode", "grid"))
                for a in data.get("axes", [])
            ]
            return cls(
                name=data["name"],
                task=data["task"],
                base=dict(data.get("base", {})),
                axes=axes,
                seed=int(data.get("seed", 0)),
                description=data.get("description", ""),
            )
        except KeyError as missing:
            raise ValueError("spec is missing required field %s" % missing)

    @classmethod
    def from_file(cls, path: str) -> "SweepSpec":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def resolve_spec(name_or_path: str) -> SweepSpec:
    """A built-in spec by name, or a JSON spec file by path."""
    if name_or_path in BUILTIN_SPECS:
        return BUILTIN_SPECS[name_or_path]()
    if name_or_path.endswith(".json"):
        return SweepSpec.from_file(name_or_path)
    raise ValueError(
        "unknown spec %r (built-ins: %s; or pass a .json spec file)"
        % (name_or_path, ", ".join(sorted(BUILTIN_SPECS)))
    )


# ---------------------------------------------------------------------------
# built-in sweeps
# ---------------------------------------------------------------------------

#: parameters that keep one HERD point under ~0.3 s, for smoke sweeps
SMOKE_HERD = dict(
    n_clients=8,
    n_client_machines=4,
    n_server_processes=2,
    measure_ns=60_000.0,
    n_keys=1 << 10,
)


def _smoke() -> SweepSpec:
    return SweepSpec(
        name="smoke",
        task="herd",
        base=dict(SMOKE_HERD),
        axes=[
            Axis("value_size", [32, 256]),
            Axis("get_fraction", [0.5, 0.95]),
        ],
        description="tiny 4-point HERD grid (value size x GET fraction); the CI gate",
    )


def _value_size() -> SweepSpec:
    return SweepSpec(
        name="value-size",
        task="herd",
        axes=[Axis("value_size", [4, 16, 32, 64, 128, 256, 512, 1000])],
        description="Figure 10's HERD line as a cached sweep",
    )


def _put_fraction() -> SweepSpec:
    return SweepSpec(
        name="put-fraction",
        task="herd",
        axes=[Axis("get_fraction", [0.0, 0.5, 0.95])],
        description="Figure 9's HERD mix sensitivity",
    )


def _window() -> SweepSpec:
    return SweepSpec(
        name="window",
        task="herd",
        base=dict(SMOKE_HERD),
        axes=[Axis("window", [1, 2, 4, 8, 16])],
        description="per-client window depth vs throughput/latency",
    )


def _skew() -> SweepSpec:
    return SweepSpec(
        name="skew",
        task="herd",
        base=dict(n_keys=1 << 16, index_entries=2 ** 18, log_bytes=1 << 24),
        axes=[Axis("distribution", ["uniform", "zipfian"])],
        description="Figure 14's uniform-vs-Zipf(.99) comparison",
    )


def _chaos() -> SweepSpec:
    return SweepSpec(
        name="chaos",
        task="chaos",
        base=dict(horizon_ns=150_000.0),
        axes=[Axis("seed", list(range(8)))],
        description="8 seeded chaos runs as a parallel sweep (invariants must hold)",
    )


def _ha_failover() -> SweepSpec:
    return SweepSpec(
        name="ha-failover",
        task="ha",
        base=dict(
            scenario="kill-primary",
            horizon_ns=150_000.0,
            n_clients=4,
            n_items=64,
            value_size=24,
            n_server_processes=2,
        ),
        axes=[
            Axis("replication_factor", [2, 3]),
            Axis("ack_policy", ["all", "majority"]),
            Axis("intensity", [0.25, 1.0]),
        ],
        description="kill-primary failover grid: rf x ack policy x fault "
        "intensity, gating availability, lost writes, and replication "
        "overhead",
    )


def _elasticity() -> SweepSpec:
    return SweepSpec(
        name="elasticity",
        task="elastic",
        base=dict(
            scenario="migrate-under-kill",
            horizon_ns=300_000.0,
            n_clients=4,
            n_items=64,
            value_size=24,
            n_server_processes=3,
            intensity=0.5,
            replication_factor=3,
            ack_policy="majority",
        ),
        axes=[Axis("seed", [3, 5, 11])],
        description="live resharding under kill-primary chaos: post-reshard "
        "tail throughput must track a born-full reference cluster, with "
        "zero lost acked writes",
    )


def _overload() -> SweepSpec:
    return SweepSpec(
        name="overload",
        task="qos",
        base=dict(horizon_ns=300_000.0),
        axes=[
            Axis("scenario", ["flash-crowd", "aggressor-tenant", "slow-client"]),
            Axis("seed", [3, 7, 11]),
        ],
        description="overload protection under flash crowds: per-scenario "
        "in-SLO goodput floor with shedding on (priced against the "
        "unprotected collapse), zero lost acked writes, p99.9 tail",
    )


def _txn() -> SweepSpec:
    return SweepSpec(
        name="txn",
        task="txn",
        base=dict(
            n_clients=24,
            n_client_machines=6,
            n_keys=512,
            read_only_fraction=0.5,
            measure_ns=150_000.0,
        ),
        axes=[
            Axis("dataplane", ["rpc", "onesided"]),
            Axis("hot_fraction", [0.0, 0.3, 0.6, 0.9]),
        ],
        description="multi-key transactions, RPC vs one-sided commit: every "
        "cell must stay strictly serializable with zero torn writes while "
        "the contention sweep reproduces the crossover (one-sided wins "
        "uncontended, server-mediated 2PC wins hot)",
    )


def _nemesis() -> SweepSpec:
    return SweepSpec(
        name="nemesis",
        task="nemesis",
        base=dict(n_schedules=6, planted_cap=24),
        axes=[Axis("seed", [1, 3])],
        description="randomized chaos-schedule search: the healthy arm must "
        "find zero invariant violations across the dataplanes, and the "
        "planted-bug arm must find its failure, shrink it to the crash "
        "atom alone, and replay the minimal reproducer byte-identically",
    )


def _figures() -> SweepSpec:
    return SweepSpec(
        name="figures",
        task="figure",
        base=dict(scale="bench"),
        axes=[Axis("figure", ["fig2", "fig3", "fig4", "fig6"])],
        description="microbenchmark figures as cached lab points",
    )


BUILTIN_SPECS = {
    "smoke": _smoke,
    "value-size": _value_size,
    "put-fraction": _put_fraction,
    "window": _window,
    "skew": _skew,
    "chaos": _chaos,
    "ha-failover": _ha_failover,
    "elasticity": _elasticity,
    "overload": _overload,
    "txn": _txn,
    "nemesis": _nemesis,
    "figures": _figures,
}
