"""Synthetic participant population with latent opinion structure.

Participants live at points in a low-dimensional latent space, drawn from
a mixture of Gaussians; ideas live in the same space, jittered around
their author's position. A participant approves an idea when their
distance to it, plus Gaussian response noise, falls inside the approval
radius. Responses come from one model, :func:`sample_attitudes`, which
answers a whole query plan at once. Because the latent state is known, the
module can also hand out a noise-free ground-truth matrix to score
estimation quality against; at zero noise the responses equal it.

Everything is a pure function of (config, seed): churn, responses, and
arrivals each derive their generator from the seed plus the round index,
so whole trajectories replay exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from enum import Enum
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import FormatError, IdentityError, ParameterError
from .matrix import Attitude

_MASK = (1 << 63) - 1

# stream tags keep the per-purpose generators disjoint
_TAG_INIT = 101
_TAG_RESPONSE = 202
_TAG_CHURN = 303
_TAG_IDEA = 404

_COV_TOL = 1e-8  # the default tolerance of NumPy's multivariate_normal check
_POISSON_LAM_MAX = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)  # the largest rate rng.poisson takes


def _rng(*entropy: int) -> np.random.Generator:
    return np.random.default_rng([int(e) & _MASK for e in entropy])


def _scalar(hint, value):
    """``value`` as an int, float or str; no bool, no string for a number, no fraction for an int."""
    if isinstance(value, bool) or not isinstance(value, str if hint is str else (int, float)):
        raise TypeError(f"expected a JSON {hint.__name__}, got {value!r}")
    if hint is int and value != int(value):
        raise ValueError(f"expected an integral number, got {value!r}")
    return hint(value)


def _convert(hint, value, name: str, default=MISSING):
    """``value`` read as the field type ``hint``; ``name`` is the field's dotted path."""
    if is_dataclass(hint):
        return parse_config(hint, value, name + ".", None if default is MISSING else default)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise TypeError(f"expected a JSON array, got {value!r}")
        return tuple(_convert(get_args(hint)[0], item, f"{name}[{j}]") for j, item in enumerate(value))
    if get_origin(hint) in (Union, UnionType):
        # the arm for the value's JSON kind, an array or a scalar
        arm = next(a for a in get_args(hint) if (get_origin(a) is tuple) == isinstance(value, list))
        return _convert(arm, value, name)
    if issubclass(hint, Enum):
        return hint.parse(_scalar(str, value))
    return _scalar(hint, value)


def parse_config(cls, raw, where: str = "", base=None):
    """The config dataclass ``cls`` read from the JSON object ``raw``.

    Every key must name a field. A field that ``raw`` leaves out keeps its
    value in ``base`` when one is given, else takes the dataclass default;
    a field with neither is required. Values are read by field type: an
    ``int`` takes an integral JSON number, a ``float`` any JSON number, a
    ``str`` a string, an enum its ``parse`` of a string, a tuple an array,
    and a dataclass a nested section that starts from the field's default.
    A malformed section, key or value raises :class:`FormatError` naming
    it by its dotted path (``where`` is the section prefix, e.g.
    ``"population."``). Ranges and finiteness are left to ``validate``.
    """
    if not isinstance(raw, dict):
        section = where.rstrip(".")
        raise FormatError(f"config section {section!r} must be a JSON object" if section
                          else "config must be a JSON object")
    declared = fields(cls)
    known = {f.name for f in declared}
    for key in raw:
        if key not in known:
            raise FormatError(f"config has an unknown field {where + key!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in declared:
        name = where + f.name
        default = f.default if f.default_factory is MISSING else f.default_factory()
        if f.name not in raw:
            if base is None and default is MISSING:
                raise FormatError(f"config lacks the required field {name!r}")
            continue
        try:
            values[f.name] = _convert(hints[f.name], raw[f.name], name, default)
        except (TypeError, ValueError, OverflowError) as exc:
            raise FormatError(f"config field {name!r} has an invalid value {raw[f.name]!r}") from exc
    return cls(**values) if base is None else replace(base, **values)


def config_to_dict(value):
    """The JSON form of a config dataclass: enums by value, tuples as lists."""
    if is_dataclass(value):
        return {f.name: config_to_dict(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [config_to_dict(item) for item in value]
    return value


def _check_finite(config) -> None:
    """ParameterError unless every float and float tuple field of the dataclass ``config`` is finite."""
    hints = get_type_hints(type(config))
    for f in fields(config):
        value = getattr(config, f.name)
        if hints[f.name] in (float, tuple[float, ...]) and not np.isfinite(value).all():
            raise ParameterError(f"{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class MixtureComponent:
    weight: float
    mean: tuple[float, ...]
    cov: float | tuple[tuple[float, ...], ...] = 1.0


def _check_cov(cov, dim: int) -> None:
    if isinstance(cov, (int, float)):
        valid = math.isfinite(cov) and cov >= 0
    else:
        valid = len(cov) == dim and all(len(row) == dim and all(map(math.isfinite, row)) for row in cov)
    if not valid:
        raise ParameterError(
            f"mixture cov must be a finite variance >= 0 or a finite {dim} x {dim} covariance, got {cov!r}"
        )
    if not isinstance(cov, (int, float)) and not _is_symmetric_psd(np.asarray(cov, dtype=float)):
        raise ParameterError(f"mixture cov must be symmetric positive semi-definite, got {cov!r}")


def _is_symmetric_psd(cov: np.ndarray) -> bool:
    """Exact symmetry, then the test NumPy's ``multivariate_normal`` makes before it warns."""
    _, s, vh = np.linalg.svd(cov)
    return np.array_equal(cov, cov.T) and np.allclose((vh.T * s) @ vh, cov, rtol=_COV_TOL, atol=_COV_TOL)


@dataclass(frozen=True)
class PopulationConfig:
    """JSON-friendly description of a synthetic population.

    ``mixture`` components carry a weight, a latent-space mean, and either
    a scalar variance or a full covariance matrix.
    """

    n0: int
    approval_radius: float
    latent_dim: int = 2
    mixture: tuple[MixtureComponent, ...] = (MixtureComponent(1.0, (0.0, 0.0)),)
    noise_sigma: float = 0.0
    arrival_rate: float = 0.0
    departure_prob: float = 0.0
    idea_jitter: float = 0.25
    seed: int = 0

    def validate(self) -> None:
        _check_finite(self)
        if self.n0 < 0:
            raise ParameterError("n0 must be non-negative")
        if self.latent_dim < 1:
            raise ParameterError("latent_dim must be positive")
        if self.approval_radius <= 0:
            raise ParameterError("approval_radius must be positive")
        if self.noise_sigma < 0:
            raise ParameterError("noise_sigma must be non-negative")
        if self.arrival_rate < 0:
            raise ParameterError("arrival_rate must be non-negative")
        if self.arrival_rate > _POISSON_LAM_MAX:
            raise ParameterError(f"arrival_rate may not exceed NumPy's Poisson limit {_POISSON_LAM_MAX:.6g}")
        if not 0.0 <= self.departure_prob <= 1.0:
            raise ParameterError("departure_prob must lie in [0, 1]")
        if self.idea_jitter < 0:
            raise ParameterError("idea_jitter must be non-negative")
        if not self.mixture:
            raise ParameterError("mixture needs at least one component")
        for component in self.mixture:
            _check_finite(component)
            if component.weight <= 0:
                raise ParameterError("mixture weights must be positive")
            if len(component.mean) != self.latent_dim:
                raise ParameterError("mixture mean length must equal latent_dim")
            _check_cov(component.cov, self.latent_dim)

    @classmethod
    def from_dict(cls, raw: dict) -> "PopulationConfig":
        """Parse the ``population`` section of a loop config.

        A missing or malformed field raises FormatError naming it, e.g.
        ``population.mixture[0].mean``.
        """
        return parse_config(cls, raw, "population.")


@dataclass
class PopulationModel:
    """Mutable latent state of one synthetic deliberation population.

    Positions are append-only: ``ground_truth`` caches the truth matrix it
    computes and, on later calls, extends it for the rows and columns
    added since. Once it has been called, do not change ``config`` or an
    existing position in place, or the cache goes stale.
    """

    config: PopulationConfig
    seed: int
    participant_positions: list[np.ndarray] = field(default_factory=list)
    bloc_labels: list[int] = field(default_factory=list)
    active: set[int] = field(default_factory=set)
    idea_positions: list[np.ndarray] = field(default_factory=list)
    idea_authors: list[int | None] = field(default_factory=list)
    # the noise-free matrix as far as ground_truth last computed it
    _truth: np.ndarray = field(default_factory=lambda: np.zeros((0, 0), dtype=np.int8),
                               init=False, repr=False, compare=False)

    @property
    def n_participants(self) -> int:
        return len(self.participant_positions)

    @property
    def n_ideas(self) -> int:
        return len(self.idea_positions)

    def _draw_position(self, rng: np.random.Generator) -> tuple[np.ndarray, int]:
        weights = np.array([c.weight for c in self.config.mixture], dtype=float)
        weights /= weights.sum()
        label = int(rng.choice(len(weights), p=weights))
        component = self.config.mixture[label]
        mean = np.asarray(component.mean, dtype=float)
        if isinstance(component.cov, (int, float)):
            position = mean + rng.standard_normal(self.config.latent_dim) * np.sqrt(float(component.cov))
        else:
            position = rng.multivariate_normal(mean, np.asarray(component.cov, dtype=float))
        return position, label

    def spawn_participant(self, rng: np.random.Generator) -> int:
        position, label = self._draw_position(rng)
        i = self.n_participants
        self.participant_positions.append(position)
        self.bloc_labels.append(label)
        self.active.add(i)
        return i

    def spawn_idea(self, author: int | None, rng: np.random.Generator) -> int:
        """New idea at its author's latent position plus Gaussian jitter."""
        if author is None:
            base, _ = self._draw_position(rng)
        else:
            if not 0 <= author < self.n_participants:
                raise IdentityError(f"unknown author {author}")
            base = self.participant_positions[author]
        position = base + rng.standard_normal(self.config.latent_dim) * self.config.idea_jitter
        p = self.n_ideas
        self.idea_positions.append(position)
        self.idea_authors.append(author)
        return p


@dataclass(frozen=True)
class GroundTruth:
    """Noise-free oracle view of the population at one instant."""

    matrix: np.ndarray        # (n, m) int8, 1 approve / 0 disapprove
    support: np.ndarray       # (m,) true approval rate over active participants
    blocs: np.ndarray         # (n,) mixture component per participant
    active: tuple[int, ...]


def generate_population(config: PopulationConfig, seed: int | None = None) -> PopulationModel:
    """Draw the initial participants; deterministic for a given seed."""
    config.validate()
    seed = config.seed if seed is None else seed
    model = PopulationModel(config=config, seed=seed)
    rng = _rng(seed, _TAG_INIT)
    for _ in range(config.n0):
        model.spawn_participant(rng)
    return model


def _sampled_approvals(model: PopulationModel, pairs, round_seed: int) -> np.ndarray:
    """The booleans behind :func:`sample_attitudes`: True where the pair approves."""
    pairs = list(pairs)
    if not pairs:
        return np.zeros(0, dtype=bool)
    index = np.fromiter(itertools.chain.from_iterable(pairs), dtype=np.intp, count=2 * len(pairs)).reshape(-1, 2)
    unknown = (index < 0) | (index >= (model.n_participants, model.n_ideas))
    if unknown.any():
        row, column = np.argwhere(unknown)[0]
        raise IdentityError(f"unknown {('participant', 'idea')[column]} {index[row, column]}")
    participants = np.array([model.participant_positions[i] for i, _ in pairs])
    ideas = np.array([model.idea_positions[p] for _, p in pairs])
    distances = np.sqrt(((participants - ideas) ** 2).sum(axis=1))
    if model.config.noise_sigma > 0:
        rng = _rng(model.seed, _TAG_RESPONSE, round_seed)
        distances = distances + rng.normal(0.0, model.config.noise_sigma, size=len(pairs))
    return distances < model.config.approval_radius


def sample_attitudes(model: PopulationModel, pairs, round_seed: int) -> list[Attitude]:
    """Noisy approval responses to one round's query plan, in plan order.

    Pair (i, p) approves iff distance(i, p) + eps < approval_radius, with
    eps ~ Normal(0, noise_sigma^2) drawn from one per-round stream over the
    pairs in plan order, so the answers are deterministic per (model seed,
    round_seed, pairs). Never returns unknown: abstention is a routing
    concern, not a response one. The distance is the square root of the
    summed squares, as in :func:`ground_truth`, so at noise_sigma = 0 every
    answer equals the ground truth bit for bit. A pair naming a participant
    or idea the model does not have raises :class:`IdentityError`.
    """
    approves = _sampled_approvals(model, pairs, round_seed).tolist()
    return [Attitude.APPROVE if a else Attitude.DISAPPROVE for a in approves]


def step_churn(model: PopulationModel, round_index: int, seed: int) -> tuple[set[int], set[int]]:
    """Apply one round of departures and Poisson arrivals to the model.

    Departures are Bernoulli per active participant; arrivals draw fresh
    positions from the mixture. Returns (arrivals, departures) as id sets.
    Deterministic per (round_index, seed).
    """
    rng = _rng(seed, _TAG_CHURN, round_index)
    ordered = sorted(model.active)
    draws = rng.random(len(ordered))
    departures = {i for i, u in zip(ordered, draws) if u < model.config.departure_prob}
    n_arrivals = int(rng.poisson(model.config.arrival_rate))
    arrivals = {model.spawn_participant(rng) for _ in range(n_arrivals)}
    model.active -= departures
    return arrivals, departures


def _truth_block(model: PopulationModel, participants: list, ideas: list) -> np.ndarray:
    """Noise-free int8 approvals of the given positions, rows by columns."""
    if not (participants and ideas):
        return np.zeros((len(participants), len(ideas)), dtype=np.int8)
    participants, ideas = np.array(participants), np.array(ideas)
    distances = np.sqrt(((participants[:, None, :] - ideas[None, :, :]) ** 2).sum(axis=2))
    return (distances < model.config.approval_radius).astype(np.int8)


def ground_truth(model: PopulationModel) -> GroundTruth:
    """Noise-free matrix and exact support rates over active participants.

    The model keeps the matrix from its last call and extends it: distances
    are computed only for the new columns of the old rows and for the new
    rows. Positions are append-only and every cell uses the same
    elementwise expression, so the result equals a full rebuild bit for
    bit. The returned matrix is a copy; writing into it leaves the model
    alone.
    """
    n, m = model.n_participants, model.n_ideas
    old = model._truth
    n0, m0 = old.shape
    if (n0, m0) != (n, m):
        grown = np.empty((n, m), dtype=np.int8)
        grown[:n0, :m0] = old
        grown[:n0, m0:] = _truth_block(model, model.participant_positions[:n0], model.idea_positions[m0:])
        grown[n0:] = _truth_block(model, model.participant_positions[n0:], model.idea_positions)
        model._truth = grown
    matrix = model._truth.copy()
    active = tuple(sorted(model.active))
    if active and m:
        support = matrix[list(active)].mean(axis=0)
    else:
        support = np.full(m, np.nan)
    return GroundTruth(
        matrix=matrix,
        support=support,
        blocs=np.array(model.bloc_labels, dtype=int),
        active=active,
    )
