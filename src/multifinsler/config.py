"""Configuration ingestion: JSON space descriptions into validated objects."""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .expr import IDENTIFIER, ExprError
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
    """Validated space description and its space, SPD-probed at the box center, which takes
    no part in equality, hashing or repr; a fixed seed makes every run deterministic."""

    dimension: int
    coordinates: tuple[str, ...]
    metrics: tuple[MetricSpec, ...]
    sampling: SamplingPolicy
    space: MultiMetricSpace = field(compare=False, repr=False)

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
    """A JSON number that is a finite float; rejects booleans, the Infinity/NaN that json
    accepts, and integers beyond the float range, which math.isfinite cannot convert."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


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
    for c in coords:
        _expect(IDENTIFIER.fullmatch(c), f"coordinate name {c!r} is not an identifier: a letter or '_', "
                                         f"then letters, digits or '_'")
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
        lo, hi = map(float, b)  # the probes and the samples read the width and the centre
        _expect(math.isfinite(hi - lo) and math.isfinite(lo + hi),
                f"invalid box interval {b!r}: its width or its centre overflows a float")

    policy = SamplingPolicy(seed=seed, count=count, box=tuple(tuple(map(float, b)) for b in box))

    # parse all expressions, then probe SPD at the box center
    lo, hi = np.array(policy.box).T
    center = (lo + hi) / 2.0
    t = np.linspace(0.25, 0.75, dim)  # symmetry probes: the center, two points inside
    # as Python floats, so an overflowing component raises its EvalDomainError without a numpy warning
    probes = [p.tolist() for p in (center, lo + t * (hi - lo), lo + t[::-1] * (hi - lo))]
    try:
        space = MultiMetricSpace([MetricField.from_strings(m.name, m.components, coords, probes)
                                  for m in metrics])
    except (ExprError, ValueError) as exc:
        raise ConfigError(f"invalid metric component: {exc}") from exc
    try:
        space.metric_values(center)
    except (NotPositiveDefiniteError, ExprError) as exc:
        raise ConfigError(f"SPD probe failed at box center: {exc}") from exc
    return SpaceConfig(dimension=dim, coordinates=tuple(coords), metrics=tuple(metrics),
                       sampling=policy, space=space)


# How many validated configs a process keeps, one per distinct file content
_CONFIG_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_CONFIG_CACHE_SIZE)
def _config_of_text(text: str) -> SpaceConfig:
    """The validated config of a file's text, kept per distinct content; a text that
    fails raises again on every call and is never stored."""
    return parse_config(json.loads(text))


def load_config(path) -> SpaceConfig:
    """Read and validate a JSON space configuration file.

    The file is read on every call, and its text is the key of the validated
    config: the same content gives the same `SpaceConfig`, whose space keeps its
    generated tables and memos, so a repeat load in one process parses, probes and
    emits nothing.  An edited file is parsed and probed again.  The process keeps
    the configs of the _CONFIG_CACHE_SIZE contents used most recently.
    """
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise ConfigError(f"config file not found: {p}") from exc
    except OSError as exc:
        raise ConfigError(f"{p}: cannot read the file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        return _config_of_text(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
