"""Configuration ingestion: JSON space descriptions into validated objects."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expr import ExprError
from .finsler import MultiMetricSpace
from .riemann import MetricField, NotPositiveDefiniteError


class ConfigError(Exception):
    """Malformed or inconsistent space configuration."""


@dataclass(frozen=True)
class MetricSpec:
    name: str
    components: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class SamplingPolicy:
    seed: int
    count: int
    box: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class SpaceConfig:
    """Validated space description; a fixed seed makes every run deterministic."""

    dimension: int
    coordinates: tuple[str, ...]
    metrics: tuple[MetricSpec, ...]
    sampling: SamplingPolicy

    def build_space(self) -> MultiMetricSpace:
        lo, hi = np.array(self.sampling.box).T
        t = np.linspace(0.25, 0.75, self.dimension)  # symmetry probes: the centre, two points inside
        # as Python floats, so an overflowing component raises its EvalDomainError without a numpy warning
        probes = [p.tolist() for p in (self.box_center(), lo + t * (hi - lo), lo + t[::-1] * (hi - lo))]
        fields = [
            MetricField.from_strings(m.name, [list(r) for r in m.components], self.coordinates, probes)
            for m in self.metrics
        ]
        return MultiMetricSpace(fields)

    def box_center(self) -> np.ndarray:
        return np.array([(lo + hi) / 2.0 for lo, hi in self.sampling.box])

    def fiber_direction(self, theta: float) -> np.ndarray:
        """Unit fiber vector at angle theta in the (x1, x2) plane; needs dimension >= 2."""
        if self.dimension < 2:
            raise ConfigError(f"fiber directions need dimension >= 2, got dimension {self.dimension}")
        y = np.zeros(self.dimension)
        y[0], y[1] = math.cos(theta), math.sin(theta)
        return y

    def to_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "coordinates": list(self.coordinates),
            "metrics": [
                {"name": m.name, "components": [list(r) for r in m.components]}
                for m in self.metrics
            ],
            "sampling": {
                "seed": self.sampling.seed,
                "count": self.sampling.count,
                "box": [list(b) for b in self.sampling.box],
            },
        }


def _expect(cond: bool, msg: str):
    if not cond:
        raise ConfigError(msg)


def _is_int(v) -> bool:
    """A JSON integer; booleans are rejected although Python counts them as ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite_number(v) -> bool:
    """A finite JSON number; rejects booleans and the Infinity/NaN that json accepts."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _expect_keys(obj: dict, allowed: tuple[str, ...], where: str):
    unknown = sorted(set(obj) - set(allowed))
    _expect(not unknown, f"unknown key(s) {unknown} in {where}; accepted keys are {list(allowed)}")


def parse_config(data: dict) -> SpaceConfig:
    _expect(isinstance(data, dict), "top level must be a JSON object")
    _expect("tolerances" not in data,
            "'tolerances' is not supported; scale every tolerance with `check --tol-scale`")
    _expect_keys(data, ("dimension", "coordinates", "metrics", "sampling"), "top level")
    _expect("dimension" in data, "missing 'dimension'")
    dim = data["dimension"]
    _expect(_is_int(dim) and dim >= 1, f"'dimension' must be a positive integer, got {dim!r}")

    coords = data.get("coordinates")
    _expect(isinstance(coords, list) and len(coords) == dim,
            f"'coordinates' must list {dim} names")
    _expect(all(isinstance(c, str) and c for c in coords), "coordinate names must be strings")
    _expect(len(set(coords)) == dim, "coordinate names must be distinct")

    raw_metrics = data.get("metrics")
    _expect(isinstance(raw_metrics, list) and len(raw_metrics) >= 1,
            "'metrics' must be a non-empty list")
    metrics = []
    for idx, m in enumerate(raw_metrics):
        where = f"metrics[{idx}]"
        _expect(isinstance(m, dict), f"{where} must be an object")
        _expect_keys(m, ("name", "components"), where)
        name = m.get("name", f"metric{idx}")
        _expect(isinstance(name, str) and name, f"{where}.name must be a non-empty string, got {name!r}")
        _expect(name not in [p.name for p in metrics], f"{where}: duplicate metric name {name!r}")
        comps = m.get("components")
        _expect(isinstance(comps, list) and len(comps) == dim,
                f"{where}.components must have {dim} rows (dimension mismatch)")
        for i, row in enumerate(comps):
            _expect(isinstance(row, list) and len(row) == dim,
                    f"{where}.components[{i}] must have {dim} entries (dimension mismatch)")
            _expect(all(isinstance(e, str) for e in row),
                    f"{where}.components[{i}] entries must be expression strings")
        metrics.append(MetricSpec(name=name, components=tuple(tuple(r) for r in comps)))

    sampling = data.get("sampling", {})
    _expect(isinstance(sampling, dict), "'sampling' must be an object")
    _expect_keys(sampling, ("seed", "count", "box"), "'sampling'")
    seed = sampling.get("seed", 42)
    count = sampling.get("count", 500)
    box = sampling.get("box", [[-1.0, 1.0]] * dim)
    _expect(_is_int(seed) and seed >= 0, f"'sampling.seed' must be a non-negative integer, got {seed!r}")
    _expect(_is_int(count) and count >= 1, f"'sampling.count' must be a positive integer, got {count!r}")
    _expect(isinstance(box, list) and len(box) == dim, f"'sampling.box' must have {dim} intervals")
    for b in box:
        _expect(isinstance(b, list) and len(b) == 2 and all(_is_finite_number(v) for v in b)
                and b[0] < b[1], f"invalid box interval {b!r}: needs two finite numbers, low < high")

    cfg = SpaceConfig(
        dimension=dim,
        coordinates=tuple(coords),
        metrics=tuple(metrics),
        sampling=SamplingPolicy(seed=seed, count=count, box=tuple(tuple(map(float, b)) for b in box)),
    )

    # parse all expressions, then probe SPD at the box center
    try:
        space = cfg.build_space()
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"invalid metric component: {exc}") from exc
    try:
        space.metric_values(cfg.box_center())
    except (NotPositiveDefiniteError, ExprError) as exc:
        raise ConfigError(f"SPD probe failed at box center: {exc}") from exc
    return cfg


def load_config(path) -> SpaceConfig:
    """Read and validate a JSON space configuration file."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_config(data)
