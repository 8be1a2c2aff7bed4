"""Dataset ingestion, normalization, splitting, and synthetic generators."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InsufficientRows,
    InternalConsistencyError,
    MissingTarget,
    ParseError,
)


@dataclass
class Dataset:
    """Feature matrix plus targets; y is float (regression) or int labels."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list[str] | None = None

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        if self.X.ndim != 2:
            raise DimensionMismatch("X must be 2-dimensional")
        if self.y.shape[0] != self.X.shape[0]:
            raise DimensionMismatch("X and y row counts differ")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains NaN or Inf")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    """Sizes of the labeled / unlabeled / test slices of a seeded shuffle."""

    n_labeled: int
    n_unlabeled: int
    n_test: int
    seed: int = 0


@dataclass
class NormalizationStats:
    """Per-feature and label mean/std captured from the training split only.

    Stds are population (divide by n) and zero stds are clamped to 1 so
    constant columns pass through centered.
    """

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float = 0.0
    y_std: float = 1.0
    normalize_labels: bool = True

    def apply_x(self, X: np.ndarray) -> np.ndarray:
        return (X - self.x_mean) / self.x_std

    def apply_y(self, y: np.ndarray) -> np.ndarray:
        if not self.normalize_labels:
            return np.asarray(y, dtype=np.float64)
        return (y - self.y_mean) / self.y_std

    def invert_y(self, y: np.ndarray) -> np.ndarray:
        if not self.normalize_labels:
            return np.asarray(y, dtype=np.float64)
        return y * self.y_std + self.y_mean

    def invert_variance(self, var: np.ndarray) -> np.ndarray:
        """Predictive variances scale by the squared label std."""
        if not self.normalize_labels:
            return np.asarray(var, dtype=np.float64)
        return var * self.y_std**2

    def to_dict(self) -> dict:
        return {
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
            "normalize_labels": self.normalize_labels,
        }

    @staticmethod
    def from_dict(d: dict) -> "NormalizationStats":
        return NormalizationStats(
            x_mean=np.asarray(d["x_mean"], dtype=np.float64),
            x_std=np.asarray(d["x_std"], dtype=np.float64),
            y_mean=float(d["y_mean"]),
            y_std=float(d["y_std"]),
            normalize_labels=bool(d["normalize_labels"]),
        )


def load_csv(
    path,
    target_column: str | int,
    delimiter: str = ",",
    has_header: bool = True,
    skip_bad_rows: bool = False,
) -> Dataset:
    """Load a numeric CSV into a Dataset.

    ``target_column`` is a header name, or a 0-based column index when the
    file has no header. By default a ragged row, or a cell that is not a
    finite number, raises ParseError naming its (1-based) row and column;
    with skip_bad_rows=True offending rows are dropped and reported in a
    warning, never silently.
    """
    rows = _read_rows(path, delimiter)
    if not rows:
        raise InsufficientRows(f"{path} has no data rows")

    if has_header:
        header = [c.strip() for c in rows[0]]
        body, first_row = rows[1:], 2
        if isinstance(target_column, int):
            t_idx = target_column
        else:
            if target_column not in header:
                raise MissingTarget(f"target column {target_column!r} not in header {header}")
            t_idx = header.index(target_column)
    else:
        header = None
        body, first_row = rows, 1
        t_idx = int(target_column)
    if not body:
        raise InsufficientRows(f"{path} has a header but no data rows")
    ncols = len(body[0])
    if t_idx < 0 or t_idx >= ncols:
        raise MissingTarget(f"target column index {t_idx} out of range for {ncols} columns")

    values, bad_rows = _parse_rows(body, first_row, range(ncols), skip_bad_rows)
    if bad_rows:
        warnings.warn(f"dropped {len(bad_rows)} unparseable rows: {bad_rows}", stacklevel=2)
    if not values:
        raise InsufficientRows(f"{path}: every row was rejected")

    names = None
    if header is not None:
        names = [h for i, h in enumerate(header) if i != t_idx]
    values = np.asarray(values)
    return Dataset(X=np.delete(values, t_idx, axis=1), y=values[:, t_idx].copy(),
                   feature_names=names)


def _read_rows(path, delimiter: str) -> list[list[str]]:
    """Every non-empty row of a delimited text file, as strings."""
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh, delimiter=delimiter) if r]


def _parse_rows(body, first_row: int, keep, skip_bad_rows: bool = False):
    """Floats from columns ``keep`` of each row of ``body``, whose first row is
    file row ``first_row``; cells outside ``keep`` are never read.

    A row whose length differs from the first row's, or a kept cell that is
    not a finite number, raises ParseError naming its row and column. With
    skip_bad_rows the row is dropped instead. Returns (values, dropped rows).
    """
    ncols = len(body[0])
    values, bad_rows = [], []
    for r, row in enumerate(body, start=first_row):
        try:
            if len(row) != ncols:
                raise ParseError(r, len(row) + 1, f"row {r} has {len(row)} cells, expected {ncols}")
            try:
                vals = [float(row[j]) for j in keep]
            except ValueError:
                vals = [float(row[j]) if _is_float(row[j]) else math.nan for j in keep]
            if not all(map(math.isfinite, vals)):
                j = next(j for j, v in zip(keep, vals) if not math.isfinite(v))
                raise ParseError(
                    r, j + 1, f"cell at row {r}, column {j + 1} is not a finite number: {row[j]!r}"
                )
        except ParseError:
            if not skip_bad_rows:
                raise
            bad_rows.append(r)
            continue
        values.append(vals)
    return values, bad_rows


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _require_finite_stats(mean, std, which: str) -> None:
    # a std that overflows would turn the data into zeros and the predictions
    # into 0 * inf = NaN, so stop here instead
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(std))):
        raise InternalConsistencyError(f"non-finite {which} normalization mean or std")


def normalize(
    train: Dataset,
    others: list[Dataset] = (),
    normalize_labels: bool = True,
    normalize_features: bool = True,
) -> tuple[Dataset, list[Dataset], NormalizationStats]:
    """Standardize features and (for regression) labels using train-split stats.

    Population std; constant columns are warned about and their std clamped
    to 1. The same stats transform every other split. A non-finite mean or
    std (e.g. a std that overflows) raises InternalConsistencyError.
    """
    if normalize_features:
        x_mean = train.X.mean(axis=0)
        x_std = train.X.std(axis=0)
        _require_finite_stats(x_mean, x_std, "feature")
    else:
        x_mean = np.zeros(train.dim)
        x_std = np.ones(train.dim)
    const = x_std == 0.0
    if np.any(const):
        warnings.warn(f"{int(const.sum())} constant feature column(s); std clamped to 1", stacklevel=2)
        x_std = np.where(const, 1.0, x_std)

    y_mean, y_std = 0.0, 1.0
    if normalize_labels:
        y_mean = float(train.y.mean())
        y_std = float(train.y.std())
        _require_finite_stats(y_mean, y_std, "label")
        if y_std == 0.0:
            warnings.warn("constant labels; std clamped to 1", stacklevel=2)
            y_std = 1.0
    stats = NormalizationStats(x_mean, x_std, y_mean, y_std, normalize_labels)

    def _apply(ds: Dataset) -> Dataset:
        return Dataset(stats.apply_x(ds.X), stats.apply_y(ds.y), ds.feature_names)

    return _apply(train), [_apply(ds) for ds in others], stats


def split(ds: Dataset, spec: SplitSpec) -> dict[str, Dataset]:
    """Seeded shuffle then contiguous slices {labeled, unlabeled, test}.

    The unlabeled slice keeps its X but its targets are discarded (zeroed).
    """
    total = spec.n_labeled + spec.n_unlabeled + spec.n_test
    if total > ds.n:
        raise InsufficientRows(f"split needs {total} rows, dataset has {ds.n}")
    if spec.n_labeled < 1:
        raise InsufficientRows("need at least one labeled row")
    order = np.random.default_rng(spec.seed).permutation(ds.n)
    lab = order[: spec.n_labeled]
    unl = order[spec.n_labeled : spec.n_labeled + spec.n_unlabeled]
    tst = order[spec.n_labeled + spec.n_unlabeled : total]
    return {
        "labeled": Dataset(ds.X[lab], ds.y[lab], ds.feature_names),
        "unlabeled": Dataset(ds.X[unl], np.zeros(len(unl)), ds.feature_names),
        "test": Dataset(ds.X[tst], ds.y[tst], ds.feature_names),
    }


def synth_regression(
    kind: str, n: int, D: int = 1, noise_std: float = 0.0, seed: int = 0
) -> Dataset:
    """Synthetic regression sets for desk-scale checks.

    sine:     x ~ U[0,1]^D, y = sin(2 pi x_1) + noise
    step:     x ~ U[0,1]^D, y = 1{x_1 > 0.5} + noise
    friedman: x ~ U[0,1]^D (D >= 5), the standard 5-relevant-feature response
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, D))
    if kind == "sine":
        y = np.sin(2.0 * np.pi * X[:, 0])
    elif kind == "step":
        y = (X[:, 0] > 0.5).astype(np.float64)
    elif kind == "friedman":
        if D < 5:
            raise ValueError("friedman needs D >= 5")
        y = (
            10.0 * np.sin(np.pi * X[:, 0] * X[:, 1])
            + 20.0 * (X[:, 2] - 0.5) ** 2
            + 10.0 * X[:, 3]
            + 5.0 * X[:, 4]
        )
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if noise_std > 0:
        y = y + rng.normal(0.0, noise_std, size=n)
    return Dataset(X=X, y=y)


def synth_blobs(
    C: int, n_per_class: int, d_in: int, separation: float, seed: int = 0
) -> Dataset:
    """Gaussian blobs (unit std) at simplex vertices, pairwise ``separation`` apart.

    Centers are (separation/sqrt(2)) * e_c, which needs d_in >= C. Labels are
    0..C-1 with exactly n_per_class rows each, in class-major order.
    """
    if C < 2:
        raise ValueError("need at least two classes")
    if d_in < C:
        raise ValueError("simplex construction needs d_in >= C")
    rng = np.random.default_rng(seed)
    scale = separation / np.sqrt(2.0)
    X, y = [], []
    for c in range(C):
        center = np.zeros(d_in)
        center[c] = scale
        X.append(center + rng.normal(size=(n_per_class, d_in)))
        y.append(np.full(n_per_class, c, dtype=np.int64))
    return Dataset(X=np.concatenate(X), y=np.concatenate(y))
