"""Core domain types for multi-operator millimeter-wave network models.

A market of M operators is modeled as a superposition of independent
homogeneous Poisson point processes, one per non-empty operator subset
("block"): a block's subset says which operators install equipment on
its sites.  An operator's own network is the union of all blocks whose
subset contains it, so its density is the sum of those block densities.

All quantities are stored in SI units internally: densities in sites
per square meter, distances in meters, powers in watts, gains linear.
The CLI converts from per-km2 / dB / dBm at the boundary.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

MAX_OPERATORS = 16

#: square meters per square kilometer
KM2 = 1.0e6


class ConfigError(ValueError):
    """Invalid parameter values, scenario definitions, or option combinations."""


class DataError(ValueError):
    """Malformed or inconsistent input data (deployment files, curve files)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or to bracket its target."""


def pool_size(workers: int, chunks: int) -> int:
    """Worker processes to start: at most one per chunk of work and per CPU."""
    return max(1, min(workers, chunks, os.cpu_count() or 1))


def check_seed(seed) -> None:
    """ConfigError for a negative seed, alone or in a tuple (SeedSequence's ValueError)."""
    parts = seed if isinstance(seed, (tuple, list)) else (seed,)
    if any(isinstance(v, (int, np.integer)) and v < 0 for v in parts):
        raise ConfigError(f"seed must be >= 0, got {seed!r}")


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def dbm_to_watts(x_dbm: float) -> float:
    return 10.0 ** (x_dbm / 10.0) * 1e-3


@dataclass(frozen=True, order=True)
class OperatorSet:
    """Immutable set of 1-based operator indices stored as a bitmask.

    Used both as the identity of a block (which operators occupy its
    sites) and as a site's occupant set.  Cardinality, membership and
    iteration are O(popcount).
    """

    bits: int

    def __post_init__(self):
        if not isinstance(self.bits, int):
            raise ConfigError(f"operator bitmask must be an int, got {type(self.bits).__name__}")
        if not 0 <= self.bits < (1 << MAX_OPERATORS):
            raise ConfigError(f"operator bitmask out of range 0..2^{MAX_OPERATORS}-1: {self.bits}")

    @classmethod
    def of(cls, *operators: int) -> "OperatorSet":
        bits = 0
        for m in operators:
            if not (isinstance(m, int) and 1 <= m <= MAX_OPERATORS):
                raise ConfigError(f"operator index must be an int in 1..{MAX_OPERATORS}, got {m!r}")
            bits |= 1 << (m - 1)
        return cls(bits)

    @classmethod
    def parse(cls, text: str) -> "OperatorSet":
        """Parse a ';'-separated list of 1-based indices, e.g. ``"1;3"``."""
        items = [p.strip() for p in text.strip().split(";") if p.strip() != ""]
        if not items:
            raise DataError(f"empty operator list: {text!r}")
        try:
            return cls.of(*[int(p) for p in items])
        except (ValueError, ConfigError) as exc:
            raise DataError(f"bad operator list {text!r}: {exc}") from exc

    def to_text(self) -> str:
        """Inverse of :meth:`parse`."""
        return ";".join(str(m) for m in self)

    @property
    def operators(self) -> tuple[int, ...]:
        return tuple(self)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length()
            bits ^= low

    def __contains__(self, op: object) -> bool:
        if not isinstance(op, int) or not 1 <= op <= MAX_OPERATORS:
            return False
        return bool((self.bits >> (op - 1)) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __bool__(self) -> bool:
        return self.bits != 0

    def __str__(self) -> str:
        return "{" + ",".join(str(m) for m in self) + "}"


@dataclass(frozen=True)
class Window:
    """Axis-aligned rectangular observation window, coordinates in meters."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ConfigError(
                f"window must have positive extent, got x [{self.x_min}, {self.x_max}] "
                f"y [{self.y_min}, {self.y_max}]"
            )

    @classmethod
    def square(cls, half_width: float, center: tuple[float, float] = (0.0, 0.0)) -> "Window":
        cx, cy = center
        return cls(cx - half_width, cx + half_width, cy - half_width, cy + half_width)

    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def contains(self, x, y):
        """Membership test; works elementwise on array inputs."""
        return (x >= self.x_min) & (x <= self.x_max) & (y >= self.y_min) & (y <= self.y_max)

    def scaled(self, factor: float) -> "Window":
        """Window scaled about its own center by ``factor``."""
        cx, cy = self.center()
        hx = 0.5 * (self.x_max - self.x_min) * factor
        hy = 0.5 * (self.y_max - self.y_min) * factor
        return Window(cx - hx, cx + hx, cy - hy, cy + hy)


def _check_finite_at_least(obj, names: tuple[str, ...], low: float) -> None:
    """ConfigError unless every named field of obj is finite and >= low (NaN is neither)."""
    for name in names:
        val = getattr(obj, name)
        if not (math.isfinite(val) and val >= low):
            raise ConfigError(f"{name} must be finite and >= {low:g}, got {val!r}")


@dataclass(frozen=True)
class FadingSpec:
    """Small-scale fading model for link power.

    kind "rayleigh": power is Exp(1).  kind "nakagami-lognormal": power is
    Gamma(m_tau, 1/m_tau) (unit mean) multiplied by lognormal shadowing
    10^(X/10), X ~ Normal(0, sigma_dB_tau^2), with per-link-type parameters.
    Only "rayleigh" is accepted by the analytic engine.
    """

    kind: str = "rayleigh"
    nakagami_m_los: float = 1.0
    nakagami_m_nlos: float = 1.0
    shadow_sigma_db_los: float = 0.0
    shadow_sigma_db_nlos: float = 0.0

    def __post_init__(self):
        if self.kind not in ("rayleigh", "nakagami-lognormal"):
            raise ConfigError(f"unknown fading kind {self.kind!r}")
        _check_finite_at_least(self, ("nakagami_m_los", "nakagami_m_nlos"), 0.5)
        _check_finite_at_least(self, ("shadow_sigma_db_los", "shadow_sigma_db_nlos"), 0.0)


RAYLEIGH = FadingSpec()

#: Nakagami + lognormal parameters used by the reference evaluation.
NAKAGAMI_LOGNORMAL_DEFAULT = FadingSpec(
    kind="nakagami-lognormal",
    nakagami_m_los=2.0,
    nakagami_m_nlos=3.0,
    shadow_sigma_db_los=5.2,
    shadow_sigma_db_nlos=7.6,
)


@dataclass(frozen=True)
class SystemParams:
    """Radio, antenna, blockage and load constants shared by all engines.

    c_los/c_nlos are linear path gains at 1 m; alpha_los/alpha_nlos the
    path-loss exponents; gain_main/gain_side the sectored antenna gains
    (main lobe of half-width half_beamwidth_rad); beta_per_m the blockage
    rate (P(LOS at r) = exp(-beta*r)); user_density_per_m2 feeds the load
    model.
    """

    carrier_freq_hz: float
    bandwidth_hz: float
    tx_power_w: float
    noise_psd_w_per_hz: float
    noise_figure_db: float
    beta_per_m: float
    c_los: float
    c_nlos: float
    alpha_los: float
    alpha_nlos: float
    gain_main: float
    gain_side: float
    half_beamwidth_rad: float
    user_density_per_m2: float
    fading: FadingSpec = field(default_factory=FadingSpec)

    def __post_init__(self):
        pos = {
            "carrier_freq_hz": self.carrier_freq_hz,
            "bandwidth_hz": self.bandwidth_hz,
            "tx_power_w": self.tx_power_w,
            "noise_psd_w_per_hz": self.noise_psd_w_per_hz,
            "beta_per_m": self.beta_per_m,
        }
        for name, val in pos.items():
            if not (isinstance(val, (int, float)) and math.isfinite(val) and val > 0):
                raise ConfigError(f"{name} must be a positive finite number, got {val!r}")
        _check_finite_at_least(self, ("noise_figure_db", "user_density_per_m2"), 0.0)
        if not (self.c_los >= self.c_nlos > 0):
            raise ConfigError("path-gain intercepts must satisfy c_los >= c_nlos > 0")
        if not 1.0 <= self.alpha_los <= self.alpha_nlos:
            raise ConfigError("exponents must satisfy 1 <= alpha_los <= alpha_nlos")
        if not self.alpha_nlos > 2.0:
            raise ConfigError("alpha_nlos must exceed 2 for interference integrals to converge")
        if not (self.gain_main >= self.gain_side > 0):
            raise ConfigError("antenna gains must satisfy G >= g > 0")
        if not 0.0 < self.half_beamwidth_rad <= math.pi:
            raise ConfigError("half_beamwidth_rad must lie in (0, pi]")

    @property
    def sigma2(self) -> float:
        """Thermal noise power (noise figure included) normalized by tx power."""
        return (
            self.noise_psd_w_per_hz
            * self.bandwidth_hz
            * db_to_linear(self.noise_figure_db)
            / self.tx_power_w
        )

    @property
    def main_lobe_prob(self) -> float:
        """Probability an interferer's beam points at the user: theta_b / pi."""
        return self.half_beamwidth_rad / math.pi


@dataclass(frozen=True)
class BlockModel:
    """Density (per square meter) of every operator-subset block, plus the window."""

    window: Window
    densities: Mapping["OperatorSet", float]

    def __post_init__(self):
        clean: dict[OperatorSet, float] = {}
        for key, lam in self.densities.items():
            if not isinstance(key, OperatorSet):
                raise ConfigError(f"block keys must be OperatorSet, got {type(key).__name__}")
            if len(key) == 0:
                raise ConfigError("block subsets must be non-empty")
            lam = float(lam)
            if not (math.isfinite(lam) and lam >= 0):
                raise ConfigError(f"block density for {key} must be finite and >= 0, got {lam}")
            clean[key] = clean.get(key, 0.0) + lam
        object.__setattr__(self, "densities", clean)

    def blocks(self, include_zero: bool = False) -> list[tuple["OperatorSet", float]]:
        """(subset, density) pairs in deterministic (bitmask) order."""
        items = sorted(self.densities.items(), key=lambda kv: kv[0].bits)
        if include_zero:
            return items
        return [(s, lam) for s, lam in items if lam > 0]

    def operator_density(self, m: int) -> float:
        """Density of operator m's network: sum over blocks containing m."""
        return sum(lam for s, lam in self.densities.items() if m in s)

    def total_density(self) -> float:
        return sum(self.densities.values())

    def to_text(self) -> str:
        """``blocks(1:12/km^2, 1;2:6/km^2, ...)``, the positive blocks in bitmask order."""
        return "blocks(" + ", ".join(
            f"{sub.to_text()}:{lam * KM2:.6g}/km^2" for sub, lam in self.blocks()) + ")"


@dataclass(frozen=True)
class TwoOpSpec:
    """Two coupled operators extracted from one mother process.

    lambda_total is per square meter, like every density in this package
    (coordinates are meters; CLI inputs in per-km^2 are converted on entry).
    A mother PPP of density lambda_total carries IID uniform marks;
    operator 1 keeps sites with mark <= retain_a, operator 2 keeps sites
    with mark > retain_b.  With 0 <= b <= a <= 1 every site is kept by
    someone and the shared fraction is a - b.
    """

    lambda_total: float
    retain_a: float
    retain_b: float

    def __post_init__(self):
        if not (math.isfinite(self.lambda_total) and self.lambda_total >= 0):
            raise ConfigError(f"lambda_total must be finite and >= 0, got {self.lambda_total}")
        if not 0.0 <= self.retain_b <= self.retain_a <= 1.0:
            raise ConfigError(
                f"retention thresholds must satisfy 0 <= b <= a <= 1, "
                f"got a={self.retain_a}, b={self.retain_b}"
            )

    @classmethod
    def from_densities(cls, lambda1: float, lambda2: float, rho: float) -> "TwoOpSpec":
        """Build the coupling from per-operator densities and overlap rho."""
        if not 0.0 <= rho <= 1.0:
            raise ConfigError(f"rho must lie in [0, 1], got {rho}")
        if lambda1 <= 0 or lambda2 <= 0:
            raise ConfigError("per-operator densities must be positive")
        lam = (lambda1 + lambda2) / (1.0 + rho)
        a = lambda1 / lam
        b = 1.0 - lambda2 / lam
        # guard float dust at the rho extremes before the invariant check
        a = min(max(a, 0.0), 1.0)
        b = min(max(b, 0.0), a)
        return cls(lam, a, b)

    @property
    def rho(self) -> float:
        """Overlap coefficient: shared density over mother density."""
        return self.retain_a - self.retain_b

    @property
    def lambda_op1(self) -> float:
        return self.retain_a * self.lambda_total

    @property
    def lambda_op2(self) -> float:
        return (1.0 - self.retain_b) * self.lambda_total

    @property
    def lambda_shared(self) -> float:
        return self.rho * self.lambda_total

    @property
    def lambda_only1(self) -> float:
        return self.retain_b * self.lambda_total

    @property
    def lambda_only2(self) -> float:
        return (1.0 - self.retain_a) * self.lambda_total

    def operator_density(self, m: int) -> float:
        if m == 1:
            return self.lambda_op1
        if m == 2:
            return self.lambda_op2
        raise ConfigError(f"two-operator model has operators 1 and 2 only, got {m}")

    def blocks(self) -> list[tuple["OperatorSet", float]]:
        """(subset, density) pairs of the equivalent independent blocks {1}, {2}, {1,2}.

        Like ``BlockModel.blocks()``: positive densities only, in bitmask order.
        """
        out = [
            (OperatorSet.of(1), self.lambda_only1),
            (OperatorSet.of(2), self.lambda_only2),
            (OperatorSet.of(1, 2), self.lambda_shared),
        ]
        return [(s, lam) for s, lam in out if lam > 0]

    def to_block_model(self, window: Window) -> BlockModel:
        return BlockModel(window, dict(self.blocks()))


def fid_scenario(lambda0: float, rho: float) -> TwoOpSpec:
    """Sharing by relocation: each operator keeps density lambda0 at any rho.

    Total distinct-site density shrinks to 2*lambda0/(1+rho) as overlap
    grows; the per-operator exclusive densities are (1-rho)/(1+rho)*lambda0.
    """
    _check_scenario_args(lambda0, rho)
    return TwoOpSpec(2.0 * lambda0 / (1.0 + rho), (1.0 + rho) / 2.0, (1.0 - rho) / 2.0)


def fcd_scenario(lambda0: float, rho: float) -> TwoOpSpec:
    """Sharing by expansion: total site density stays 2*lambda0 at any rho.

    Each operator's density grows to (1+rho)*lambda0 as it expands into
    the other's sites; exclusive densities are (1-rho)*lambda0.
    """
    _check_scenario_args(lambda0, rho)
    return TwoOpSpec(2.0 * lambda0, (1.0 + rho) / 2.0, (1.0 - rho) / 2.0)


def _check_scenario_args(lambda0: float, rho: float) -> None:
    if not (math.isfinite(lambda0) and lambda0 > 0):
        raise ConfigError(f"lambda0 must be positive, got {lambda0}")
    if not 0.0 <= rho <= 1.0:
        raise ConfigError(f"rho must lie in [0, 1], got {rho}")


def load_factor(params: SystemParams, lambda_op: float) -> float:
    """Average users per BS: N_U = 1 + 1.28 * (lambda_U / lambda_op)."""
    if lambda_op <= 0:
        raise ConfigError(f"operator density must be positive, got {lambda_op}")
    return 1.0 + 1.28 * params.user_density_per_m2 / lambda_op


def rate_sinr_threshold(rate_bps, params: SystemParams, lambda_op: float):
    """SINR threshold equivalent to a rate target under equal time sharing; elementwise.

    A user attains rate R when SINR > 2^(R*N_U/B) - 1, where N_U is the
    load factor of its home operator.
    """
    rate = np.asarray(rate_bps, dtype=float)
    if np.any(rate < 0):
        raise ConfigError(f"rate must be >= 0, got {rate.min()}")
    n_u = load_factor(params, lambda_op)
    # float_power takes libm's pow, as Python floats do, so an array's
    # elements equal the scalar calls (an array ** may round differently);
    # a rate past the float range needs an infinite SINR, which is exact
    with np.errstate(over="ignore"):
        val = np.float_power(2.0, rate * n_u / params.bandwidth_hz) - 1.0
    return val if val.ndim else float(val)


def sinr_rate(sinr: float, params: SystemParams, lambda_op: float) -> float:
    """Rate of a user at this SINR, B * log2(1 + SINR) / N_U: rate_sinr_threshold's inverse."""
    return params.bandwidth_hz * math.log2(1.0 + sinr) / load_factor(params, lambda_op)


def check_grid(values, unit: str) -> np.ndarray:
    """``values`` as a flat float array: SINR thresholds (unit "db") or rates ("bps").

    Raises ConfigError unless the grid is non-empty and strictly
    increasing, and for rates, >= 0.
    """
    grid = np.asarray(values, dtype=float).reshape(-1)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or (unit == "bps" and np.any(grid < 0)):
        raise ConfigError("rates must be a non-empty strictly increasing grid of >= 0 values"
                          if unit == "bps" else
                          "thresholds must be a non-empty strictly increasing grid")
    return grid


# ---------------------------------------------------------------------------
# Presets and parameter files

#: 28 GHz urban evaluation defaults (dense blockage, sectored 18/-2 dB antenna).
REFERENCE_PRESET = SystemParams(
    carrier_freq_hz=28e9,
    bandwidth_hz=200e6,
    tx_power_w=dbm_to_watts(26.0),
    noise_psd_w_per_hz=dbm_to_watts(-174.0),
    noise_figure_db=10.0,
    beta_per_m=0.007,
    c_los=db_to_linear(-60.0),
    c_nlos=db_to_linear(-70.0),
    alpha_los=2.0,
    alpha_nlos=4.0,
    gain_main=db_to_linear(18.0),
    gain_side=db_to_linear(-2.0),
    half_beamwidth_rad=math.radians(10.0),
    user_density_per_m2=200.0 / KM2,
    fading=RAYLEIGH,
)

PRESETS: dict[str, SystemParams] = {"paper-sec5": REFERENCE_PRESET}


def params_to_dict(params: SystemParams) -> dict:
    """Human-unit dict mirroring SystemParams (inverse of params_from_dict)."""
    return {
        "carrier_freq_ghz": params.carrier_freq_hz / 1e9,
        "bandwidth_mhz": params.bandwidth_hz / 1e6,
        "tx_power_dbm": 10.0 * math.log10(params.tx_power_w * 1e3),
        "noise_psd_dbm_per_hz": 10.0 * math.log10(params.noise_psd_w_per_hz * 1e3),
        "noise_figure_db": params.noise_figure_db,
        "beta_per_m": params.beta_per_m,
        "c_los_db": linear_to_db(params.c_los),
        "c_nlos_db": linear_to_db(params.c_nlos),
        "alpha_los": params.alpha_los,
        "alpha_nlos": params.alpha_nlos,
        "gain_main_db": linear_to_db(params.gain_main),
        "gain_side_db": linear_to_db(params.gain_side),
        "half_beamwidth_deg": math.degrees(params.half_beamwidth_rad),
        "user_density_per_km2": params.user_density_per_m2 * KM2,
        "fading": asdict(params.fading),
    }


def params_from_dict(data: Mapping, base: SystemParams | None = None) -> SystemParams:
    """Build SystemParams from a human-unit mapping.

    Missing keys default to ``base`` (the "paper-sec5" preset by default).
    Unknown keys are rejected so typos fail loudly.
    """
    data = dict(data)
    defaults = params_to_dict(REFERENCE_PRESET if base is None else base)
    fading_in = data.pop("fading", None)
    unknown = set(data) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    merged = {**defaults, **data}
    fading_d = dict(defaults["fading"])
    if fading_in is not None:
        if not isinstance(fading_in, Mapping):
            raise ConfigError("'fading' must be a mapping")
        bad = set(fading_in) - set(fading_d)
        if bad:
            raise ConfigError(f"unknown fading keys: {sorted(bad)}")
        fading_d.update(fading_in)
    try:
        fading = FadingSpec(**{k: str(v) if k == "kind" else float(v)
                               for k, v in fading_d.items()})
        return SystemParams(
            carrier_freq_hz=float(merged["carrier_freq_ghz"]) * 1e9,
            bandwidth_hz=float(merged["bandwidth_mhz"]) * 1e6,
            tx_power_w=dbm_to_watts(float(merged["tx_power_dbm"])),
            noise_psd_w_per_hz=dbm_to_watts(float(merged["noise_psd_dbm_per_hz"])),
            noise_figure_db=float(merged["noise_figure_db"]),
            beta_per_m=float(merged["beta_per_m"]),
            c_los=db_to_linear(float(merged["c_los_db"])),
            c_nlos=db_to_linear(float(merged["c_nlos_db"])),
            alpha_los=float(merged["alpha_los"]),
            alpha_nlos=float(merged["alpha_nlos"]),
            gain_main=db_to_linear(float(merged["gain_main_db"])),
            gain_side=db_to_linear(float(merged["gain_side_db"])),
            half_beamwidth_rad=math.radians(float(merged["half_beamwidth_deg"])),
            user_density_per_m2=float(merged["user_density_per_km2"]) / KM2,
            fading=fading,
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad parameter value: {exc}") from exc


def _read_json_object(path: str | Path, what: str) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also bytes not UTF-8, or nesting too deep
        raise ConfigError(f"{what} file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{what} file {path} must hold a JSON object")
    return data


def load_params_file(path: str | Path, base: SystemParams | None = None) -> SystemParams:
    """Load a JSON parameter file overlaid on ``base`` (see params_from_dict)."""
    return params_from_dict(_read_json_object(path, "params"), base=base)


def load_blocks_file(path: str | Path) -> BlockModel:
    """Load a JSON block table.

    Schema: {"window_m": [x_min, x_max, y_min, y_max],
             "densities_per_km2": {"1": 10.0, "2": 10.0, "1;2": 5.0}}
    """
    data = _read_json_object(path, "blocks")
    unknown = set(data) - {"window_m", "densities_per_km2"}
    if unknown:
        raise ConfigError(f"unknown blocks-file keys: {sorted(unknown)}")
    try:
        win = data["window_m"]
        dens = data["densities_per_km2"]
    except KeyError as exc:
        raise ConfigError(f"blocks file {path} is missing key {exc}") from exc
    if not (isinstance(win, (list, tuple)) and len(win) == 4):
        raise ConfigError("'window_m' must be [x_min, x_max, y_min, y_max]")
    if not isinstance(dens, Mapping):
        raise ConfigError("'densities_per_km2' must map operator lists to densities")
    try:
        window = Window(*[float(v) for v in win])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"blocks file {path}: bad 'window_m' {win!r}: {exc}") from exc
    table = {}
    for k, v in dens.items():
        try:
            subset = OperatorSet.parse(k)
        except DataError as exc:
            raise ConfigError(f"bad block subset in {path}: {exc}") from exc
        try:
            table[subset] = float(v) / KM2
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"blocks file {path}: density of block {k!r} must be a number, got {v!r}"
            ) from exc
    return BlockModel(window, table)
