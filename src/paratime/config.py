"""Run and sweep configuration: parsing, validation, resolution.

Configs are plain nested key-value documents (YAML on disk, dicts in
memory).  Precedence is command line > file > defaults; every numerical
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

# External names for criterion selection.
_CHECKS = {"standard": "standard", "psi": "proximity"}
_WEIGHTS = {"unit": "unit", "lyapunov": "lyapunov",
            "lipschitz": "lipschitz_dynamic"}
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
    w1_mode: str = "per-coordinate-mean"
    snapshots: bool = False
    seed: int = 0  # reserved for future randomized features

    def validate(self) -> None:
        if self.check not in _CHECKS:
            raise ConfigError(
                f"check: unknown value {self.check!r}; expected one of "
                f"{sorted(_CHECKS)}")
        if self.weight not in _WEIGHTS:
            raise ConfigError(
                f"weight: unknown value {self.weight!r}; expected one of "
                f"{sorted(_WEIGHTS)}")
        if self.eps <= 0:
            raise ConfigError(f"eps: must be positive, got {self.eps}")
        if self.check == "psi" and self.weight == "lyapunov" and self.lam is None:
            raise ConfigError("lam: required for weight=lyapunov")
        get_tableau(self.fine)
        get_tableau(self.coarse)
        self.resolve_grid()

    # -- resolution ----------------------------------------------------
    def resolve_system(self) -> OdeSystem:
        return systems_mod.build_system(self.system, self.params)

    def resolve_u0(self, system: OdeSystem) -> np.ndarray:
        if self.u0 is None:
            return systems_mod.default_initial_state(system)
        u0 = np.asarray(self.u0, dtype=float)
        if u0.shape != (system.dim,):
            raise ConfigError(
                f"u0: expected {system.dim} components, got shape {u0.shape}")
        return u0

    def resolve_grid(self) -> GridSpec:
        return GridSpec.make(T=self.T, N=self.N, xi=self.xi, h=self.h,
                             L=self.L)

    def resolve_propagators(self, grid: GridSpec) -> Tuple[Propagator, Propagator]:
        return (fine_propagator(grid, get_tableau(self.fine)),
                coarse_propagator(grid, get_tableau(self.coarse)))

    def resolve_criterion(self) -> StopCriterion:
        return StopCriterion(kind=_CHECKS[self.check], eps=self.eps,
                             weight_mode=_WEIGHTS[self.weight], lam=self.lam)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SolveConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown config keys: {sorted(extra)}")
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
    compute_w1: bool = True
    compute_error: bool = True

    def validate(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(f"mode: unknown value {self.mode!r}")
        if self.mode in ("strong", "weak") and not self.N_list:
            raise ConfigError(f"N_list: required for mode={self.mode}")
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
        """Yield (SolveConfig, check, weight) in declared order."""
        base = self.base
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
                                     "T": float(T), "N": int(N), "L": None,
                                     "check": check, "weight": weight,
                                     "lam": lam})
                yield cfg, check, weight

    def to_dict(self) -> dict:
        d = asdict(self)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        data = dict(data)
        base = data.pop("base", {})
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ConfigError(f"unknown sweep config keys: {sorted(extra)}")
        return cls(base=SolveConfig.from_dict(base), **data)


def read_config_file(path: str) -> dict:
    """The key-value document in a YAML config file ({} when empty)."""
    import yaml  # deferred: a run that reads no config file never loads it

    with open(path) as fh:
        return yaml.safe_load(fh) or {}


def load_solve_config(path: str, overrides: dict | None = None) -> SolveConfig:
    data = read_config_file(path)
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = SolveConfig.from_dict(data)
    cfg.validate()
    return cfg


def load_sweep_config(path: str, overrides: dict | None = None) -> SweepConfig:
    data = read_config_file(path)
    data.update({k: v for k, v in (overrides or {}).items() if v is not None})
    cfg = SweepConfig.from_dict(data)
    cfg.validate()
    return cfg


def dump_config(cfg, path: str) -> None:
    import yaml

    with open(path, "w") as fh:
        yaml.safe_dump(cfg.to_dict(), fh, sort_keys=True)
