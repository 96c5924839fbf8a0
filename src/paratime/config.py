"""Run and sweep configuration: parsing, validation, resolution.

Configs are plain nested key-value documents (YAML on disk, dicts in
memory).  Precedence is flags that are set > preset or file > defaults, in
:func:`load_config`, the one path from either to a config; every numerical
object (system, grid, propagators, criterion) is resolved through here so a
config fully determines a run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from typing import List, Optional, Tuple

import numpy as np

from . import systems as systems_mod
from .criteria import StopCriterion
from .errors import ConfigError
from .integrators import (GridSpec, Propagator, coarse_propagator,
                          fine_propagator, get_tableau)
from .systems import OdeSystem

_MODES = ("strong", "weak", "time")


@dataclass
class SolveConfig:
    """Everything one run needs; grid uses T, N, xi and one of h, L."""

    system: str = "lorenz63"
    params: dict = field(default_factory=dict)
    u0: Optional[list] = None
    fine: str = "rk4"
    coarse: str = "rk4"
    T: float = 1.0
    N: int = 1
    xi: int = 1
    h: Optional[float] = None
    L: Optional[int] = None
    eps: float = 1e-9
    check: str = "standard"
    weight: str = "unit"
    lam: Optional[float] = None

    def validate(self) -> None:
        self.resolve_criterion()
        get_tableau(self.fine)
        get_tableau(self.coarse)
        self.resolve_grid()

    # -- resolution ----------------------------------------------------
    def resolve_system(self) -> OdeSystem:
        return systems_mod.build_system(self.system, self.params)

    def resolve_u0(self, system: OdeSystem) -> np.ndarray:
        if self.u0 is None:
            return systems_mod.default_initial_state(system)
        try:
            u0 = np.asarray(self.u0, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"u0: expected {system.dim} numbers, got "
                              f"{self.u0!r}") from exc
        if u0.shape != (system.dim,):
            raise ConfigError(
                f"u0: expected {system.dim} components, got shape {u0.shape}")
        if not np.isfinite(u0).all():
            raise ConfigError(f"u0: every component must be finite, got "
                              f"{self.u0!r}")
        return u0

    def resolve_grid(self) -> GridSpec:
        return GridSpec.make(T=self.T, N=self.N, xi=self.xi, h=self.h,
                             L=self.L)

    def resolve_propagators(self, grid: GridSpec) -> Tuple[Propagator, Propagator]:
        return (fine_propagator(grid, get_tableau(self.fine)),
                coarse_propagator(grid, get_tableau(self.coarse)))

    def resolve_criterion(self) -> StopCriterion:
        return StopCriterion(check=self.check, eps=self.eps, weight=self.weight,
                             lam=self.lam)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
        params = data.get("params")
        if params is not None and not isinstance(params, dict):
            raise ConfigError(f"params: expected a mapping, got "
                              f"{type(params).__name__}")
        return cls(**data)


@dataclass
class SweepConfig:
    """A family of runs sharing one base config.

    strong: T fixed, N varies; weak: chunk length fixed at base.T/base.N and
    T = N * dT; time: N fixed, T varies.
    """

    base: SolveConfig = field(default_factory=SolveConfig)
    mode: str = "strong"
    N_list: List[int] = field(default_factory=list)
    T_list: List[float] = field(default_factory=list)
    criteria: List[dict] = field(default_factory=lambda: [
        {"check": "standard", "weight": "unit"}])

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode: unknown value {self.mode!r}")
        if self.mode in ("strong", "weak") and not self.N_list:
            raise ConfigError(f"N_list: required for mode={self.mode}")
        if self.mode != "time" and not all(float(N).is_integer()
                                           for N in self.N_list):
            raise ConfigError(f"N_list: chunk counts must be whole numbers, "
                              f"got {self.N_list}")
        if self.mode == "time" and not self.T_list:
            raise ConfigError("T_list: required for mode=time")
        if not self.criteria:
            raise ConfigError("criteria: need at least one entry")
        for crit in self.criteria:
            extra = set(crit) - {"check", "weight", "lam"}
            if extra:
                raise ConfigError(f"criteria entry has unknown keys {sorted(extra)}")
        for cfg, _, _ in self.rows():
            cfg.validate()

    def rows(self):
        """Yield (SolveConfig, check, weight) in declared order.

        Every row steps with the base's h, derived from its grid when it
        gives only L, so that one reference walk serves every row.
        """
        base = self.base
        h = base.h if base.h is not None else base.resolve_grid().h
        for crit in self.criteria:
            check = crit.get("check", "standard")
            weight = crit.get("weight", "unit")
            lam = crit.get("lam", base.lam)
            if self.mode == "strong":
                points = [(base.T, N) for N in self.N_list]
            elif self.mode == "weak":
                dT = base.T / base.N
                points = [(N * dT, N) for N in self.N_list]
            else:
                points = [(T, base.N) for T in self.T_list]
            for T, N in points:
                cfg = SolveConfig(**{**base.to_dict(),
                                     "T": float(T), "N": int(N), "h": h,
                                     "L": None,
                                     "check": check, "weight": weight,
                                     "lam": lam})
                yield cfg, check, weight

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        base = data.pop("base", {})
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown sweep config keys: {sorted(extra)}")
        if not isinstance(base, dict):
            raise ConfigError(f"base: expected a mapping, got "
                              f"{type(base).__name__}")
        criteria = data.get("criteria", [])
        if not (isinstance(criteria, list)
                and all(isinstance(c, dict) for c in criteria)):
            raise ConfigError("criteria: expected a list of mappings with "
                              "keys check, weight, lam")
        for name in ("N_list", "T_list"):
            values = data.get(name, [])
            if not (isinstance(values, list)
                    and all(isinstance(v, (int, float)) for v in values)):
                raise ConfigError(f"{name}: expected a list of numbers, got "
                                  f"{values!r}")
        return cls(base=SolveConfig.from_dict(base), **data)


def read_config_file(path: str) -> dict:
    """The key-value document in a YAML config file ({} when empty).

    A file that cannot be read or parsed, or whose top level is not a
    mapping, raises a ConfigError naming the path.
    """
    import yaml  # deferred: a run that reads no config file never loads it

    try:
        with open(path, "rb") as fh:  # yaml detects the encoding
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"config file {path!r}: {exc.strerror}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path!r}: invalid YAML: {exc}") from exc
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path!r}: top level is a "
                          f"{type(data).__name__}, not a mapping")
    return data


def load_config(cls, preset: str | None = None, path: str | None = None,
                overrides: dict | None = None):
    """A ``cls`` config (``SolveConfig`` or ``SweepConfig``), not validated.

    It starts from the named preset, else the YAML file at ``path``, else the
    defaults; every override that is not None then replaces its key.
    """
    if preset:
        from .presets import PRESETS  # presets builds its configs from here

        base = PRESETS[preset]
        if not isinstance(base, cls):
            kind = "sweep" if cls is SweepConfig else "single-run"
            raise ConfigError(f"preset: {preset!r} is not a {kind} preset")
        data = base.to_dict()
    elif path:
        data = read_config_file(path)
    else:
        data = {}
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    return cls.from_dict(data)


def dump_config(cfg, path: str) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)
