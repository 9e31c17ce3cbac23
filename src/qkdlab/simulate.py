"""Monte Carlo sessions of the entanglement-based qutrit protocol.

Convention: the sender measures her half of the entangled pair in one of
the four phase bases, the receiver measures his half in the *conjugate*
of one of the four, so equal basis indices give perfectly correlated
trits and the default sifting rule keeps exactly those rounds.  As basis
sets, each conjugate basis coincides with one of the original four (the
pairing is computed, not assumed, by :func:`basis_correlation_survey`).

Sampling is distribution-exact: per basis pair the round outcomes are
drawn by inverse CDF from a precomputed probability table (9 entries for
the noise channels, 81 for the cloning attack, where the attacker's two
measurement outcomes are part of the record).  All randomness for a
session comes from one Philox stream keyed by the seed, drawn in chunks
of rounds one after another with three uniforms per round, so round r
consumes exactly the numbers it would take from a single (rounds, 3)
table; any chunk size or partitioning of rounds therefore reproduces
identical results.  A session keeps only the histogram of (basis pair,
outcome cell) counts, from which every statistic is derived, so its
memory use does not grow with the number of rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Union

import numpy as np

from .cloner import ClonerParams, closed_form_report, outcome_table, phi_cloner_matrix
from .qudit import (BasisSpec, conjugate_phi_basis_state, max_entangled,
                    optimal_bases, phi_basis_state)
from .security import _entropy_nats, eve_information

TABLE_TOL = 1e-12

_PHIS = tuple(b.phi for b in optimal_bases())


@dataclass(frozen=True)
class IdealChannel:
    pass


@dataclass(frozen=True)
class DepolarizingChannel:
    """Entangled state admixed with unbiased noise of weight 1 - visibility."""

    visibility: float

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility {self.visibility!r} outside [0, 1]")


@dataclass(frozen=True)
class CloningAttackChannel:
    """The flying qutrit is cloned; the attacker keeps clone B and machine C."""

    params: ClonerParams

    def __post_init__(self):
        p = self.params
        # rejects NaN, which require_normalized lets through, and values
        # whose square would overflow inside it
        if not all(abs(c) <= 2.0 for c in (p.v, p.x, p.y, p.z)):
            raise ValueError(f"cloner parameters {p} are off the normalization surface")
        p.require_normalized()


Channel = Union[IdealChannel, DepolarizingChannel, CloningAttackChannel]


@dataclass(frozen=True)
class SameIndexSifting:
    """Keep rounds where both parties picked the same basis index."""


@dataclass(frozen=True)
class PairedIndexSifting:
    """Keep rounds whose (sender, receiver) basis pair is in an accept list."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < 4 and 0 <= j < 4):
                raise ValueError(f"basis pair ({i},{j}) out of range")


SiftingRule = Union[SameIndexSifting, PairedIndexSifting]

_UNIFORM4 = (0.25, 0.25, 0.25, 0.25)


@dataclass
class SimConfig:
    rounds: int
    seed: int
    channel: Channel = field(default_factory=IdealChannel)
    alice_weights: tuple[float, ...] = _UNIFORM4
    bob_weights: tuple[float, ...] = _UNIFORM4
    sifting: SiftingRule = field(default_factory=SameIndexSifting)

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("alice_weights", "bob_weights"):
            w = tuple(float(p) for p in getattr(self, name))
            if (len(w) != 4 or not all(math.isfinite(p) and p >= 0 for p in w)
                    or abs(sum(w) - 1.0) > 1e-12):
                raise ValueError(f"{name} must be 4 nonnegative weights summing to 1")
            setattr(self, name, w)

    @staticmethod
    def from_json(data: dict) -> "SimConfig":
        """Build a config from the JSON shape mirrored by the CLI flags.

        Input of another shape (a missing key, a value of the wrong type)
        raises ValueError.
        """
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        for key in ("rounds", "seed"):
            if key not in data:
                raise ValueError(f"config is missing {key!r}")
            if type(data[key]) is not int:
                raise ValueError(f"config {key!r} must be an integer, got {data[key]!r}")
        ch = data.get("channel", {"type": "ideal"})
        sift = data.get("sifting", {"rule": "same"})
        if not (isinstance(ch, dict) and isinstance(sift, dict)):
            raise ValueError("config 'channel' and 'sifting' must be JSON objects")
        try:
            kind = ch.get("type", "ideal")
            if kind == "ideal":
                channel: Channel = IdealChannel()
            elif kind == "depolarizing":
                channel = DepolarizingChannel(float(ch["visibility"]))
            elif kind == "cloning":
                channel = CloningAttackChannel(ClonerParams(*(float(p) for p in ch["params"])))
            else:
                raise ValueError(f"unknown channel type {kind!r}")
            if sift.get("rule", "same") == "same":
                sifting: SiftingRule = SameIndexSifting()
            elif sift["rule"] == "pairs":
                sifting = PairedIndexSifting(tuple((int(i), int(j)) for i, j in sift["pairs"]))
            else:
                raise ValueError(f"unknown sifting rule {sift!r}")
            return SimConfig(
                rounds=data["rounds"],
                seed=data["seed"],
                channel=channel,
                alice_weights=tuple(data.get("alice_weights", _UNIFORM4)),
                bob_weights=tuple(data.get("bob_weights", _UNIFORM4)),
                sifting=sifting,
            )
        except KeyError as exc:
            raise ValueError(f"config is missing {exc}") from None
        except TypeError as exc:
            raise ValueError(f"config value of the wrong type: {exc}") from None


def round_distribution(channel: Channel, alice_basis: int, bob_basis: int) -> np.ndarray:
    """Exact outcome table for one basis pair.

    Ideal and depolarizing channels give P[a, b]; the cloning attack gives
    P[a, b, e_b, e_c] where e_b is the attacker's clone outcome (measured
    in the receiver's basis) and e_c her machine outcome (measured in the
    conjugate basis).
    """
    if not (0 <= alice_basis < 4 and 0 <= bob_basis < 4):
        raise ValueError(f"basis indices ({alice_basis},{bob_basis}) out of range")
    if isinstance(channel, IdealChannel):
        table = _ideal_table(alice_basis, bob_basis)
    elif isinstance(channel, DepolarizingChannel):
        table = (channel.visibility * _ideal_table(alice_basis, bob_basis)
                 + (1.0 - channel.visibility) / 9.0)
    elif isinstance(channel, CloningAttackChannel):
        table = _attack_table(channel.params, alice_basis, bob_basis)
    else:
        raise ValueError(f"unsupported channel {channel!r}")
    if abs(table.sum() - 1.0) > TABLE_TOL:
        raise AssertionError("round distribution does not sum to 1")
    return table


def _ideal_table(i: int, j: int) -> np.ndarray:
    ent = max_entangled(3).amps
    p = np.zeros((3, 3))
    for a in range(3):
        bra_a = phi_basis_state(_PHIS[i], a).amps
        for b in range(3):
            bra_b = conjugate_phi_basis_state(_PHIS[j], b).amps
            p[a, b] = abs(np.kron(bra_a, bra_b).conj() @ ent) ** 2
    return p


def _attack_table(params: ClonerParams, i: int, j: int) -> np.ndarray:
    """P[a, b, e_b, e_c]: sender outcome uniform; her measurement leaves the
    flying qutrit in the matching conjugate-basis state, which is cloned and
    then read out in the receiver's basis pair."""
    mat = phi_cloner_matrix(params)
    flying = BasisSpec(_PHIS[i], conjugated=True)
    bob = BasisSpec(_PHIS[j], conjugated=True)
    return np.array([outcome_table(mat, flying.state(a), bob) for a in range(3)]) / 3.0


@dataclass
class SimResult:
    """Outcome statistics of one simulated session.

    ``qber`` is the trit error rate on sifted rounds with its binomial
    standard error (both None if nothing survived sifting).  For the
    cloning attack, ``attack_counts[a, e_b, m]`` histograms the sender
    trit against the attacker's clone outcome and her reconstruction
    m = e_c - e_b (mod 3) of the receiver's error, on sifted rounds;
    ``empirical_i_ae`` is the plug-in mutual information (bits) between
    a and the pair (e_b, m).
    """

    rounds: int
    sifted_count: int
    sifted_fraction: float
    qber: float | None
    qber_se: float | None
    basis_correlation_matrix: np.ndarray
    raw_counts: dict[tuple[int, int], np.ndarray]
    empirical_i_ae: float | None = None
    attack_counts: np.ndarray | None = None


# Rounds drawn per step.  It bounds a session's working memory (about
# 110 bytes per round of the chunk) and changes no result.
_CHUNK = 1 << 18

# Generator.random returns k * 2**-53 with an integer k in [0, 2**53), so
# u * _GRID is exact and cells can be found by integer comparison.
_GRID = 1 << 53

# Each table row's key range is cut into 2**_GUIDE_BITS equal buckets.  A
# draw whose bucket holds no key needs no search (at most K - 1 of the
# 1024 buckets of a row hold one).
_GUIDE_BITS = 10


def _cell_search(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted integer keys and a bucket guide for exact inverse-CDF lookups.

    Row p of ``cum`` is the cumulative distribution of table p.  It
    contributes the keys (p << 53) + min(ceil(cum[p, k] * 2**53), 2**53) for
    its first K - 1 cells; for u on the 2**-53 grid, ceil(c * 2**53) <=
    u * 2**53 holds exactly when c <= u.  The last cell needs no key: a u
    past every other threshold lands there, as the clipped float
    ``searchsorted`` puts it.  ``guide[g]`` counts the keys below the start
    of bucket g, the key range [g, g + 1) << (53 - _GUIDE_BITS).
    """
    scaled = np.minimum(np.ceil(cum[:, :-1] * _GRID), _GRID).astype(np.int64)
    rows = np.arange(len(cum), dtype=np.int64)[:, None] << 53
    keys = (scaled + rows).reshape(-1)
    starts = np.arange((len(cum) << _GUIDE_BITS) + 1, dtype=np.int64) << (53 - _GUIDE_BITS)
    return keys, np.searchsorted(keys, starts)


def _cell_index(search: tuple[np.ndarray, np.ndarray], row: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Flat index row * K + cell of each draw.

    Equal to row * K + min(searchsorted(cum[row], u, side="right"), K - 1)
    for every u that ``Generator.random`` returns.  The keys of earlier rows
    all lie at or below a draw's key (row << 53) + u * 2**53 and those of
    later rows above it, so counting the keys at or below it counts
    row * (K - 1) keys before the draw's own row.  Where the draw's bucket
    holds no key the guide gives that count; elsewhere a binary search does.
    """
    keys, guide = search
    key = (u * _GRID).astype(np.int64)
    key += row << 53
    bucket = key >> (53 - _GUIDE_BITS)
    index = guide[bucket]
    split = np.flatnonzero(index != guide[bucket + 1])
    index[split] = np.searchsorted(keys, key[split], side="right")
    return index + row


def _basis_index(cum_weights: np.ndarray, u: np.ndarray) -> np.ndarray:
    """min(searchsorted(cum_weights, u, side="right"), 3), by three comparisons."""
    return sum(u >= c for c in cum_weights[:3].tolist())


def _sample_outcomes(config: SimConfig, cum: np.ndarray):
    """Stream bases and outcome cells, ``_CHUNK`` rounds at a time.

    ``cum`` holds the cumulative outcome table of basis pair (i, j) in row
    4 * i + j.  Yields, per chunk and in round order, the first round
    number, the two basis indices and each round's flat histogram index
    pair * K + cell.
    """
    search = _cell_search(cum)
    alice_cum = np.cumsum(config.alice_weights)
    bob_cum = np.cumsum(config.bob_weights)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    for start in range(0, config.rounds, _CHUNK):
        u = gen.random((min(_CHUNK, config.rounds - start), 3))
        ai = _basis_index(alice_cum, u[:, 0])
        bj = _basis_index(bob_cum, u[:, 1])
        yield start, ai, bj, _cell_index(search, 4 * ai + bj, u[:, 2])


def run_session(config: SimConfig, on_rounds=None) -> SimResult:
    """Simulate a full session: basis choices, outcomes, sifting, statistics.

    Deterministic for a fixed config (seed included); see the module
    docstring for why the result does not depend on the chunk size.  Memory
    use does not grow with ``config.rounds``.  If given, ``on_rounds`` is
    called once per chunk, in round order, with an (n, 5) integer array of
    (round, basis_i, basis_j, a, b) rows.
    """
    if config.rounds < 1:
        raise ValueError("need at least one round")
    tables = np.array([round_distribution(config.channel, i, j).reshape(-1)
                       for i in range(4) for j in range(4)])
    cells = tables.shape[1]
    hist = np.zeros(16 * cells, dtype=np.int64)
    for start, ai, bj, index in _sample_outcomes(config, np.cumsum(tables, axis=1)):
        hist += np.bincount(index, minlength=16 * cells)
        if on_rounds is not None:
            cell = index % cells
            on_rounds(np.column_stack([np.arange(start, start + len(index)), ai, bj,
                                       cell // (cells // 3), cell // (cells // 9) % 3]))
    return _session_statistics(config, hist.reshape(16, cells))


def _session_statistics(config: SimConfig, hist: np.ndarray) -> SimResult:
    """Every reported statistic, from the (16, K) histogram of (basis pair, cell).

    Cell c of a 9-cell table is (a, b) = divmod(c, 3); of an 81-cell attack
    table, (a, b, e_b, e_c) in base 3.
    """
    cells = hist.shape[1]
    cell = np.arange(cells)
    a, b = cell // (cells // 3), cell // (cells // 9) % 3
    n_pair = hist.sum(axis=1)
    n_agree = hist[:, a == b].sum(axis=1)

    if isinstance(config.sifting, SameIndexSifting):
        accept = np.eye(4, dtype=bool)
    else:
        accept = np.zeros((4, 4), dtype=bool)
        for i, j in config.sifting.pairs:
            accept[i, j] = True
    accept = accept.reshape(-1)

    n_sift = int(n_pair[accept].sum())
    if n_sift > 0:
        qber = (n_sift - int(n_agree[accept].sum())) / n_sift
        qber_se = math.sqrt(max(qber * (1.0 - qber), 0.0) / n_sift)
    else:
        qber = qber_se = None

    corr = np.full(16, np.nan)
    seen = n_pair > 0
    corr[seen] = n_agree[seen] / n_pair[seen]

    empirical_i_ae = None
    attack_counts = None
    if isinstance(config.channel, CloningAttackChannel) and n_sift > 0:
        e_b, e_c = cell // 3 % 3, cell % 3
        attack_counts = np.zeros(27, dtype=np.int64)
        np.add.at(attack_counts, a * 9 + e_b * 3 + (e_c - e_b) % 3, hist[accept].sum(axis=0))
        attack_counts = attack_counts.reshape(3, 3, 3)
        empirical_i_ae = plugin_mutual_information(attack_counts.reshape(3, 9))

    return SimResult(
        rounds=config.rounds,
        sifted_count=n_sift,
        sifted_fraction=n_sift / config.rounds,
        qber=qber,
        qber_se=qber_se,
        basis_correlation_matrix=corr.reshape(4, 4),
        raw_counts={(p // 4, p % 4): hist[p] for p in range(16)},
        empirical_i_ae=empirical_i_ae,
        attack_counts=attack_counts,
    )


def plugin_mutual_information(counts: np.ndarray, base: float = 2.0) -> float:
    """Plug-in estimate of I(row; column) from a contingency table."""
    n = counts.sum()
    if n == 0:
        return 0.0
    p = counts / n
    nats = float(_entropy_nats(p.sum(axis=1)) + _entropy_nats(p.sum(axis=0))
                 - _entropy_nats(p.reshape(-1)))
    return max(nats, 0.0) / math.log(base)


# ---------------------------------------------------------------------------
# basis correlation survey


@dataclass
class SurveyResult:
    """Maximal relabeled agreement per basis pair, exact and sampled.

    ``perfect_pairs`` lists the pairs whose best outcome relabeling agrees
    with certainty; ``conjugate_pairing`` maps each receiver basis index to
    the sender basis whose *set* of states its conjugate basis coincides
    with (the pairing that makes the four bases correlated two by two).
    """

    exact: np.ndarray
    empirical: np.ndarray
    perfect_pairs: list[tuple[int, int]]
    conjugate_pairing: dict[int, int]


def _best_relabeled_agreement(table9: np.ndarray) -> float:
    best = 0.0
    for perm in permutations(range(3)):
        best = max(best, sum(table9[a, perm[a]] for a in range(3)))
    return best


def basis_correlation_survey(config: SimConfig) -> SurveyResult:
    """Enumerate which basis pairs are (after relabeling) perfectly correlated."""
    if not isinstance(config.channel, IdealChannel):
        raise ValueError("survey is defined for the ideal channel")
    exact = np.zeros((4, 4))
    for i in range(4):
        for j in range(4):
            exact[i, j] = _best_relabeled_agreement(round_distribution(config.channel, i, j))

    result = run_session(config)
    empirical = np.zeros((4, 4))
    for (i, j), counts in result.raw_counts.items():
        tot = counts.sum()
        empirical[i, j] = (_best_relabeled_agreement(counts.reshape(3, 3) / tot)
                           if tot else np.nan)

    perfect = [(i, j) for i in range(4) for j in range(4) if exact[i, j] > 1.0 - 1e-9]

    pairing = {}
    for j in range(4):
        conj_cols = BasisSpec(_PHIS[j], conjugated=True).matrix()
        for i in range(4):
            overlap = np.abs(BasisSpec(_PHIS[i]).matrix().conj().T @ conj_cols)
            if np.allclose(np.max(overlap, axis=0), 1.0, atol=1e-9):
                pairing[j] = i
                break
    return SurveyResult(exact, empirical, perfect, pairing)


# ---------------------------------------------------------------------------
# empirical vs analytic comparison


@dataclass
class ComparisonRecord:
    rounds: int
    sifted_count: int
    empirical_qber: float
    analytic_qber: float
    qber_se: float
    empirical_i_ae: float
    analytic_i_ae: float
    i_ae_se: float
    qber_sigmas: float
    i_ae_sigmas: float


def empirical_vs_analytic(config: SimConfig, bootstrap: int = 50) -> ComparisonRecord:
    """Compare sampled error rate and attacker information with closed forms.

    The information standard error comes from multinomial bootstrap
    resamples of the sifted contingency table (seeded from the config).
    """
    if not isinstance(config.channel, CloningAttackChannel):
        raise ValueError("comparison requires the cloning-attack channel")
    if config.rounds < 100_000:
        raise ValueError("need at least 1e5 rounds for the comparison")

    params = config.channel.params
    result = run_session(config)
    if result.sifted_count == 0:
        raise ValueError("no sifted rounds")

    analytic_qber = 1.0 - closed_form_report(params).f_a
    analytic_i_ae = eve_information(params, base=2)

    counts = result.attack_counts.reshape(3, 9)
    n = counts.sum()
    probs = (counts / n).reshape(-1)
    boot_gen = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(config.seed).spawn(1)[0]))
    samples = [
        plugin_mutual_information(
            boot_gen.multinomial(n, probs).reshape(3, 9))
        for _ in range(bootstrap)
    ]
    i_ae_se = float(np.std(samples, ddof=1))

    qber_sig = (abs(result.qber - analytic_qber) / result.qber_se
                if result.qber_se else math.inf)
    i_sig = (abs(result.empirical_i_ae - analytic_i_ae) / i_ae_se
             if i_ae_se > 0 else math.inf)
    return ComparisonRecord(
        rounds=config.rounds,
        sifted_count=result.sifted_count,
        empirical_qber=result.qber,
        analytic_qber=analytic_qber,
        qber_se=result.qber_se,
        empirical_i_ae=result.empirical_i_ae,
        analytic_i_ae=analytic_i_ae,
        i_ae_se=i_ae_se,
        qber_sigmas=qber_sig,
        i_ae_sigmas=i_sig,
    )


def mi_bias_bound(cells: int, rounds: int, base: float = 2.0,
                  safety: float = 4.0) -> float:
    """Plug-in mutual-information bias allowance: safety * (K-1) / (2 N ln base)."""
    return safety * (cells - 1) / (2.0 * rounds * math.log(base))
