"""Dataset representation, CSV input, priors, and the outcome weights.

The pseudo-likelihood is not generative: exp of minus twice the weighted
hinge loss sum_i w_i max(1 - a_i x_i'beta, 0), w = `owl_weights`, so that
maximizing it is the same problem as minimizing the outcome-weighted
classification objective. All functions are pure and safe to evaluate concurrently.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass

import numpy as np


class DataError(ValueError):
    """Malformed or inconsistent input data."""


# How np.loadtxt reads a body line: comma-separated cells, optionally double-quoted.
_CELLS = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)
_BLOCK = 256  # physical body lines per np.loadtxt call
_BLANK = ("\n", "\r\n", "\r")


def _rows(path, numbered):
    """The (line number, line) pairs of `numbered` whose line is not blank or a `#` comment row.

    A row is one line; only a line with a quote needs `csv.reader` to find
    its first cell. A quoted cell open at the end of a line is rejected.
    """
    for lineno, line in numbered:
        if '"' in line:
            cells = next(csv.reader([line]))
            if cells[0].lstrip().startswith("#"):
                continue
            if cells[-1].endswith(("\n", "\r")):
                raise DataError(f"{path}: quoted cell left open at the end of line {lineno}")
        elif line in _BLANK or line.lstrip().startswith("#"):
            continue
        yield lineno, line


def read_numeric_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and numeric body of a CSV file, skipping blank and `#` comment rows.

    Every body row must have as many cells as the header, and every cell
    must parse as a finite float; the header's meaning is the caller's to
    check. Each rejection raises DataError naming the file and, for a bad
    row, its line. The body is read once, in blocks of _BLOCK physical lines
    with one np.loadtxt call each. Only a block whose text holds a quote, a
    `#` or a blank line goes through the per-line `_rows` filter; any other
    block is all data rows as it stands.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lineno, line = next(_rows(path, enumerate(fh, 1)), (0, None))
        if line is None:
            raise DataError(f"{path}: empty file")
        header = [c.strip() for c in next(csv.reader([line]))]
        blocks = []
        while block := list(itertools.islice(fh, _BLOCK)):
            first, lineno = lineno + 1, lineno + len(block)
            lines, text = block, "".join(block)
            if '"' in text or "#" in text or any(blank in block for blank in _BLANK):
                lines = [line for _, line in _rows(path, enumerate(block, first))]
                if not lines:
                    continue
            try:
                values = np.loadtxt(lines, **_CELLS)
                if values.shape[1] != len(header):
                    raise ValueError(f"{values.shape[1]} cells per row, the header {len(header)}")
            except ValueError as exc:
                for k, line in _rows(path, enumerate(block, first)):
                    n_cells = len(next(csv.reader([line])))
                    if n_cells != len(header):
                        raise DataError(f"{path}: ragged rows (line {k} has {n_cells} cells, "
                                        f"the header {len(header)})") from None
                    try:
                        np.loadtxt([line], **_CELLS)
                    except ValueError as line_exc:
                        detail = str(line_exc).partition(" at row ")[0]  # numpy's row is within the line
                        raise DataError(f"{path}: non-numeric cell on line {k} ({detail})") from None
                raise DataError(f"{path}: {exc}") from None
            blocks.append(values)
    if not blocks:
        raise DataError(f"{path}: no data rows")
    # Checked once every block has parsed, so a bad cell anywhere wins over an earlier NaN.
    values = np.concatenate(blocks)
    if not np.isfinite(values).all():
        i, j = np.argwhere(~np.isfinite(values))[0]
        raise DataError(f"{path}: NaN or Inf in column {header[j]}, data row {i + 1}")
    return header, values


@dataclass
class Dataset:
    """Trial data: features (n x p), actions in {-1,+1}, positive rewards.

    rho is the known randomization probability P(A = +1). n = 0 is allowed,
    as (0, p) features (prior-recovery runs); the CSV loader needs a row.
    """

    features: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    rho: float

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.actions = np.asarray(self.actions, dtype=float).ravel()
        self.rewards = np.asarray(self.rewards, dtype=float).ravel()
        n, p = self.features.shape
        if p < 1:
            raise DataError("need at least one feature column")
        if self.actions.shape != (n,) or self.rewards.shape != (n,):
            raise DataError("features, actions and rewards disagree on n")
        if not (0.0 < self.rho < 1.0):
            raise DataError(f"rho must lie in (0, 1), got {self.rho}")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain NaN or Inf")
        if n > 0:
            if not np.all(np.isin(self.actions, (-1.0, 1.0))):
                raise DataError("actions must be -1 or +1")
            if not np.all(np.isfinite(self.rewards)) or not np.all(self.rewards > 0):
                raise DataError("rewards must be finite and positive (apply reward_transform first)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class NormalPrior:
    """Independent N(mu0_j, sigma0_sq) on each coefficient."""

    mu0: float | np.ndarray = 0.0
    sigma0_sq: float = 1.0

    def __post_init__(self):
        if not (self.sigma0_sq > 0):
            raise ValueError("sigma0_sq must be positive")

    def mu0_vector(self, p: int) -> np.ndarray:
        return _prior_vector(self, "mu0", p)


@dataclass(frozen=True)
class ExponentialPowerPrior:
    """Double-exponential shrinkage prior (power index fixed at 1).

    Mixing representation: beta_j | omega_j ~ N(0, nu^2 sigma_j^2 omega_j)
    with omega_j ~ Exponential(mean 2).
    """

    nu: float = 0.8
    sigma_j: np.ndarray | None = None

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError("nu must be positive")


@dataclass(frozen=True)
class SpikeSlabPrior:
    """Point mass at zero vs N(0, nu^2 sigma_j^2) slab, inclusion prob pi_incl."""

    nu: float = 0.8
    pi_incl: float = 0.5
    sigma_j: np.ndarray | None = None

    def __post_init__(self):
        if not (self.nu > 0):
            raise ValueError("nu must be positive")
        if not (0.0 < self.pi_incl < 1.0):
            raise ValueError("pi_incl must lie in (0, 1)")


PriorSpec = NormalPrior | ExponentialPowerPrior | SpikeSlabPrior


def feature_scales(features: np.ndarray) -> np.ndarray:
    """Per-column population standard deviations, computed once at fit start.

    Zero-variance columns (the constant intercept column in particular)
    get scale 1 so the shrinkage priors stay proper.
    """
    features = np.atleast_2d(np.asarray(features, dtype=float))
    sd = features.std(axis=0) if features.shape[0] > 0 else np.zeros(features.shape[1])
    return np.where(sd > 0, sd, 1.0)


def _prior_vector(prior: PriorSpec, name: str, p: int) -> np.ndarray:
    """The prior's field `name` as a length-p vector: a scalar broadcasts, any other shape raises."""
    value = np.asarray(getattr(prior, name), dtype=float)
    if value.ndim == 0:
        return np.full(p, float(value))
    if value.shape != (p,):
        raise ValueError(f"{type(prior).__name__}.{name} has shape {value.shape}, "
                         f"need a scalar or length p = {p}")
    return value


def prior_scales(prior: ExponentialPowerPrior | SpikeSlabPrior, features: np.ndarray) -> np.ndarray:
    """A shrinkage prior's sigma_j as a length-p vector, checked before any chain starts.

    An unset sigma_j is `feature_scales` of the training features, a scalar
    broadcasts, and any other shape raises ValueError.
    """
    if prior.sigma_j is None:
        return feature_scales(features)
    return _prior_vector(prior, "sigma_j", features.shape[1])


def add_intercept(features: np.ndarray) -> np.ndarray:
    """Prepend a constant-1 column (the optional affine term of the rule)."""
    features = np.atleast_2d(np.asarray(features, dtype=float))
    return np.hstack([np.ones((features.shape[0], 1)), features])


def owl_weights(data: Dataset) -> np.ndarray:
    """Inverse-propensity reward weights r_i / rho, or r_i / (1 - rho) where a_i = -1."""
    return data.rewards / np.where(data.actions == 1.0, data.rho, 1.0 - data.rho)


def reward_transform(raw_rewards: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift rewards into the positive half-line if needed; return them and the shift.

    Rewards already strictly positive pass through unchanged. Otherwise
    every reward is shifted by -min + eps with eps = 1e-3 * (max - min),
    or 1e-3 when the range is degenerate. A constant shift preserves all
    pairwise reward distances.
    """
    raw = np.asarray(raw_rewards, dtype=float).ravel()
    if raw.size == 0:
        raise DataError("cannot transform an empty reward vector")
    if not np.all(np.isfinite(raw)):
        raise DataError("rewards contain NaN or Inf")
    lo = float(raw.min())
    if lo > 0:
        return raw.copy(), 0.0
    spread = float(raw.max()) - lo
    eps = 1e-3 * spread if spread > 0 else 1e-3
    shift = -lo + eps
    return raw + shift, shift


def load_dataset_csv(path, rho: float) -> tuple[Dataset, float]:
    """Read a dataset from CSV with header x1..xp,a,r (in that order).

    Actions must be -1 or +1; all values must be finite. Raw rewards may be
    nonpositive: the reward shift is applied here and returned for reporting.
    """
    header, values = read_numeric_csv(path)
    expected_tail = ["a", "r"]
    if len(header) < 3 or header[-2:] != expected_tail:
        missing = [c for c in expected_tail if c not in header]
        if missing:
            raise DataError(f"{path}: missing required column(s) {', '.join(missing)}")
        raise DataError(f"{path}: header must end with columns a, r")
    x_cols = header[:-2]
    if x_cols != [f"x{j}" for j in range(1, len(x_cols) + 1)]:
        raise DataError(f"{path}: feature columns must be named x1..xp in order, got {x_cols}")
    features = values[:, :-2]
    actions = values[:, -2]
    if not np.all(np.isin(actions, (-1.0, 1.0))):
        raise DataError(f"{path}: column a must contain only -1 or 1")
    rewards, shift = reward_transform(values[:, -1])
    return Dataset(features=features, actions=actions, rewards=rewards, rho=rho), shift
