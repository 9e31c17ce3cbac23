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
session comes from one Philox stream keyed by the seed, three raw 64-bit
outputs per round, drawn in chunks of rounds one after another.  Each
output's top 53 bits are the integer k behind the uniform k * 2**-53 that
``Generator.random`` would make of it, and every comparison with a
cumulative probability is made exactly on k.  A round takes one gather
from a guide of 4,096 buckets per basis pair, indexed by the top bits of
its three outputs; the few rounds whose bucket a threshold splits fall
back to a binary search on the same integers.  Round r consumes outputs
3r to 3r + 2 whatever the chunk size, so any partitioning of rounds
reproduces identical results, equal to sampling from the single
(rounds, 3) table ``Generator.random`` returns.  A session keeps only the
histogram of (basis pair, outcome cell) counts, from which every
statistic is derived, so its memory use does not grow with the number of
rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Union

import numpy as np

from .cloner import (ClonerParams, clone_amplitudes, closed_form_report, phi_cloner_matrix,
                     readout_table)
from .qudit import optimal_bases
from .security import _entropy_nats, eve_information

TABLE_TOL = 1e-12

# Basis i's states are the columns of _BASES[i].  The flying qutrit and the
# receiver's readout are in the conjugate bases, the columns of _BASES.conj().
_BASES = np.array([b.matrix() for b in optimal_bases()])


@dataclass(frozen=True)
class DepolarizingChannel:
    """Entangled state admixed with unbiased noise of weight 1 - visibility.

    At visibility 1 it is the ideal source, the entangled state unchanged.
    """

    visibility: float

    def __post_init__(self):
        if not (0.0 <= self.visibility <= 1.0):
            raise ValueError(f"visibility {self.visibility!r} outside [0, 1]")


@dataclass(frozen=True)
class CloningAttackChannel:
    """The flying qutrit is cloned; the attacker keeps clone B and machine C."""

    params: ClonerParams

    def __post_init__(self):
        self.params.require_normalized()


Channel = Union[DepolarizingChannel, CloningAttackChannel]


@dataclass(frozen=True)
class PairedIndexSifting:
    """Keep rounds whose (sender, receiver) basis pair is in an accept list;
    by default the rounds where both parties picked the same basis index."""

    pairs: tuple[tuple[int, int], ...] = ((0, 0), (1, 1), (2, 2), (3, 3))

    def __post_init__(self):
        for i, j in self.pairs:
            if not (0 <= i < 4 and 0 <= j < 4):
                raise ValueError(f"basis pair ({i},{j}) out of range")


_UNIFORM4 = (0.25, 0.25, 0.25, 0.25)
#: the most rounds one session takes: about 9 h at 30e6 rounds/s on one
#: core of a 2-vCPU Xeon VM
_ROUNDS_MAX = 10 ** 12


@dataclass(frozen=True)
class SimConfig:
    rounds: int
    seed: int
    channel: Channel = DepolarizingChannel(1.0)
    alice_weights: tuple[float, ...] = _UNIFORM4
    bob_weights: tuple[float, ...] = _UNIFORM4
    sifting: PairedIndexSifting = PairedIndexSifting()

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be at least 1")
        if self.rounds > _ROUNDS_MAX:
            raise ValueError(f"rounds must be at most {_ROUNDS_MAX}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        for name in ("alice_weights", "bob_weights"):
            w = tuple(float(p) for p in getattr(self, name))
            if (len(w) != 4 or not all(math.isfinite(p) and p >= 0 for p in w)
                    or abs(sum(w) - 1.0) > 1e-12):
                raise ValueError(f"{name} must be 4 nonnegative weights summing to 1")
            object.__setattr__(self, name, w)

    @staticmethod
    def from_json(data: dict) -> "SimConfig":
        """Build a config from the JSON shape mirrored by the CLI flags.

        Input of another shape (a missing key, a value of the wrong type)
        raises ValueError.
        """
        if not isinstance(data, dict):
            raise ValueError("config must be a JSON object")
        try:
            for key in ("rounds", "seed"):
                if type(data[key]) is not int:
                    raise ValueError(f"config {key!r} must be an integer, got {data[key]!r}")
            ch = data.get("channel", {"type": "ideal"})
            sift = data.get("sifting", {"rule": "same"})
            if not (isinstance(ch, dict) and isinstance(sift, dict)):
                raise ValueError("config 'channel' and 'sifting' must be JSON objects")
            kind = ch.get("type", "ideal")
            if kind == "ideal":
                channel: Channel = DepolarizingChannel(1.0)
            elif kind == "depolarizing":
                channel = DepolarizingChannel(_json_number("visibility", ch["visibility"]))
            elif kind == "cloning":
                params = ch["params"]
                if not (isinstance(params, list) and len(params) == 4):
                    raise ValueError(f"config 'params' takes four numbers v, x, y, z, "
                                     f"got {params!r}")
                channel = CloningAttackChannel(
                    ClonerParams(*(_json_number("params", p) for p in params)).normalized())
            else:
                raise ValueError(f"unknown channel type {kind!r}")
            if sift.get("rule", "same") == "same":
                sifting = PairedIndexSifting()
            elif sift["rule"] == "pairs":
                pairs = sift["pairs"]
                if not (isinstance(pairs, list) and all(
                        isinstance(p, list) and len(p) == 2 and all(type(t) is int for t in p)
                        for p in pairs)):
                    raise ValueError("config sifting pairs must be integers, "
                                     f"a list of [i, j] lists, got {pairs!r}")
                sifting = PairedIndexSifting(tuple((i, j) for i, j in pairs))
            else:
                raise ValueError(f"unknown sifting rule {sift!r}")
            weights = {name: tuple(_json_number(name, p) for p in data.get(name, _UNIFORM4))
                       for name in ("alice_weights", "bob_weights")}
            return SimConfig(rounds=data["rounds"], seed=data["seed"], channel=channel,
                             sifting=sifting, **weights)
        except KeyError as exc:
            raise ValueError(f"config is missing {exc}") from None
        except TypeError as exc:
            raise ValueError(f"config value of the wrong type: {exc}") from None


def _json_number(key: str, x) -> float:
    """A config value that must be a JSON number, not a bool or a string."""
    if type(x) not in (int, float):
        raise ValueError(f"config {key!r} takes JSON numbers, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer literal beyond the float range
        raise ValueError(f"config {key!r} takes numbers within the float range") from None


def round_distribution(channel: Channel, alice_basis: int, bob_basis: int) -> np.ndarray:
    """Exact outcome table for one basis pair.

    The depolarizing channel gives P[a, b]; the cloning attack gives
    P[a, b, e_b, e_c] where e_b is the attacker's clone outcome (measured
    in the receiver's basis) and e_c her machine outcome (measured in the
    conjugate basis).
    """
    if not (0 <= alice_basis < 4 and 0 <= bob_basis < 4):
        raise ValueError(f"basis indices ({alice_basis},{bob_basis}) out of range")
    return _round_tables(channel, [(alice_basis, bob_basis)])[0]


_PAIRS = tuple((i, j) for i in range(4) for j in range(4))


def _round_tables(channel: Channel, pairs) -> list[np.ndarray]:
    """:func:`round_distribution` of each basis pair in ``pairs``.

    On the maximally entangled state the pair (i, j) gives
    P[a, b] = |<a_i|b_j>|^2 / 3: projecting the receiver's half on the
    conjugate state b_j* leaves the sender's half in b_j.  The depolarizing
    channel at visibility V gives V * P + (1 - V) / 9.
    """
    if isinstance(channel, DepolarizingChannel):
        v = channel.visibility
        tables = [v * (np.abs(_BASES[i].conj().T @ _BASES[j]) ** 2 / 3.0) + (1.0 - v) / 9.0
                  for i, j in pairs]
    elif isinstance(channel, CloningAttackChannel):
        tables = _attack_tables(channel.params, pairs)
    else:
        raise ValueError(f"unsupported channel {channel!r}")
    for table in tables:
        if abs(table.sum() - 1.0) > TABLE_TOL:
            raise AssertionError("round distribution does not sum to 1")
    return tables


def _attack_tables(params: ClonerParams, pairs) -> list[np.ndarray]:
    """P[a, b, e_b, e_c] of each pair (i, j): sender outcome uniform; her
    measurement leaves the flying qutrit in the matching conjugate-basis
    state, which is cloned and then read out in the receiver's basis pair.
    Each of the three flying states of basis i is cloned once, however many
    pairs read it out."""
    mat = phi_cloner_matrix(params)
    flying = _BASES.conj()
    joints = {i: [clone_amplitudes(mat, np.ascontiguousarray(state)) for state in flying[i].T]
              for i in {i for i, _ in pairs}}
    return [np.array([readout_table(joint, flying[j]) for joint in joints[i]]) / 3.0
            for i, j in pairs]


@dataclass
class SimResult:
    """Outcome statistics of one simulated session.

    ``qber`` is the trit error rate on sifted rounds with its binomial
    standard error (both None if nothing survived sifting).  For the
    cloning attack, ``attack_counts[a, e_b, m]`` histograms the sender
    trit against the attacker's clone outcome and m = e_c - e_b (mod 3),
    on sifted rounds; ``empirical_i_ae`` is the plug-in mutual information
    (bits) between a and the pair (e_b, m).  m is the receiver's error
    b - a on same-index basis pairs only: at the optimal cloner it
    differs with probability 0.171, 0.556 and 0.889 on pairs whose
    indices are 1, 2 and 3 apart.  So when sifting accepts a cross pair,
    ``empirical_i_ae`` is not the I_AE that ``eve_information`` computes.
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


# Rounds drawn per step.  It bounds a session's working memory and changes
# no result.  A chunk's arrays take about 107 bytes per round, a traced peak
# of 0.88 MB at 2**13 rounds (tracemalloc).  With the earlier sampler,
# which looked up each basis and the cell separately, larger chunks
# page-faulted more (a 4e6-round session made 590 minor faults at 2**13,
# 2,216 at 2**15); at 2**12 the per-chunk Python overhead, about 33 us,
# slowed it by 6-16%.
_CHUNK = 1 << 13

# Generator.random returns k * 2**-53, where k is the top 53 bits of one
# raw 64-bit output of the bit generator.  The engine draws the integers k
# and compares them with thresholds scaled by _GRID, which is exact.
_GRID = 1 << 53

# Each table row's key range is cut into 2**_GUIDE_BITS equal buckets.  A
# draw whose bucket holds no key needs no search: at most K - 1 of the 4096
# buckets of a row hold one, 1.01% of the attack tables' buckets (3.63% at
# 10 bits).
_GUIDE_BITS = 12


def _cell_search(cum: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted integer keys and a bucket guide for exact inverse-CDF lookups.

    Row p of ``cum`` is the cumulative distribution of table p.  It
    contributes the keys (p << 53) + min(ceil(cum[p, k] * 2**53), 2**53) for
    its first K - 1 cells; for a draw u = k * 2**-53, ceil(c * 2**53) <= k
    holds exactly when c <= u.  The last cell needs no key: a u past every
    other threshold lands there, as the clipped float ``searchsorted`` puts
    it.  Bucket g of row p is the key range (p << 53) + [g, g + 1) <<
    (53 - _GUIDE_BITS); ``guide[(p << _GUIDE_BITS) + g]`` is the flat index
    p * K + cell that every key in it maps to, or -1 where a key splits the
    bucket.  The int16 guide ends in one more -1, the entry that
    :func:`_outcome_index` clips every split round onto.  It is built a row
    at a time, which keeps its temporaries small.
    """
    rows, cells = cum.shape
    scaled = np.minimum(np.ceil(cum[:, :-1] * _GRID), _GRID).astype(np.int64)
    edges = np.arange((1 << _GUIDE_BITS) + 1, dtype=np.int64) << (53 - _GUIDE_BITS)
    guide = np.full((rows << _GUIDE_BITS) + 1, -1, dtype=np.int16)
    for p, row in enumerate(scaled):
        below = np.searchsorted(row, edges[:-1], side="right")
        whole = below == np.searchsorted(row, edges[1:])
        guide[p << _GUIDE_BITS:(p + 1) << _GUIDE_BITS][whole] = below[whole] + p * cells
    return (scaled + (np.arange(rows, dtype=np.int64)[:, None] << 53)).reshape(-1), guide


def _outcome_search(cum: np.ndarray, alice_weights, bob_weights) -> tuple[np.ndarray, ...]:
    """The tables :func:`_outcome_index` reads.

    ``cum`` holds the cumulative outcome table of basis pair (i, j) in row
    4 * i + j.  A basis index is the cell of a one-row table of the weights.
    Each basis guide holds its pick already shifted into place in the cell
    guide's index, (4 * i) << _GUIDE_BITS for the sender and j <<
    _GUIDE_BITS for the receiver; a bucket that a threshold splits holds an
    offset at or past the cell guide's trailing -1.
    """
    keys, guide = _cell_search(cum)
    search = [keys, guide]
    for weights, shift in ((alice_weights, _GUIDE_BITS + 2), (bob_weights, _GUIDE_BITS)):
        basis_keys, basis_guide = _cell_search(np.cumsum(weights)[None, :])
        pick = basis_guide[:-1].astype(np.int64)
        search += [basis_keys, np.where(pick < 0, len(guide) - 1, pick << shift)]
    return tuple(search)


def _outcome_index(search: tuple[np.ndarray, ...], raw: np.ndarray) -> np.ndarray:
    """Flat histogram index pair * K + cell of each row of raw outputs.

    Row r of the (n, 3) uint64 ``raw`` holds the outputs behind the
    sender's basis, the receiver's basis and the outcome cell; their top
    53 bits are the integers k of ``Generator.random``.  Each round takes
    one gather from the cell guide, at the two basis guides' picks plus the
    cell draw's bucket.  A round where any of the three buckets is split
    lands on the trailing -1, and one fallback resolves its two bases and
    its cell by binary search on the same integers k, counting the keys at
    or below each (the keys of earlier rows all lie at or below a draw's
    key (p << 53) + k, those of later rows above it).
    """
    keys, guide, alice_keys, alice_pick, bob_keys, bob_pick = search
    # one bucket temporary serves all three outputs: with a second one per
    # chunk, glibc trimmed and re-faulted the heap every chunk (about 30,000
    # minor faults in a 4e6-round session against 460)
    shift = 64 - _GUIDE_BITS
    bucket = raw[:, 0] >> shift
    index = alice_pick.take(bucket.view(np.int64))
    np.right_shift(raw[:, 1], shift, out=bucket)
    index += bob_pick.take(bucket.view(np.int64))
    np.right_shift(raw[:, 2], shift, out=bucket)
    index += bucket.view(np.int64)
    index = guide.take(index, mode="clip")
    split = (index < 0).nonzero()[0]
    k = (raw[split] >> 11).view(np.int64)
    pair = alice_keys.searchsorted(k[:, 0], side="right") * 4
    pair += bob_keys.searchsorted(k[:, 1], side="right")
    index[split] = keys.searchsorted((pair << 53) + k[:, 2], side="right") + pair
    return index


def _sample_outcomes(config: SimConfig, cum: np.ndarray):
    """Stream outcome indices, ``_CHUNK`` rounds at a time.

    ``cum`` holds the cumulative outcome table of basis pair (i, j) in row
    4 * i + j.  Yields, per chunk and in round order, the first round
    number and each round's flat histogram index (4 * i + j) * K + cell.
    Round r reads raw outputs 3r to 3r + 2, the ones behind row r of
    ``Generator.random((rounds, 3))``.
    """
    search = _outcome_search(cum, config.alice_weights, config.bob_weights)
    bitgen = np.random.Philox(np.random.SeedSequence(config.seed))
    for start in range(0, config.rounds, _CHUNK):
        n = min(_CHUNK, config.rounds - start)
        yield start, _outcome_index(search, bitgen.random_raw(3 * n).reshape(n, 3))


def run_session(config: SimConfig, on_rounds=None) -> SimResult:
    """Simulate a full session: basis choices, outcomes, sifting, statistics.

    Deterministic for a fixed config (seed included); see the module
    docstring for why the result does not depend on the chunk size.  Memory
    use does not grow with ``config.rounds``.  If given, ``on_rounds`` is
    called once per chunk, in round order, with an (n, 5) integer array of
    (round, basis_i, basis_j, a, b) rows.
    """
    tables = np.array([t.reshape(-1) for t in _round_tables(config.channel, _PAIRS)])
    cells = tables.shape[1]
    hist = np.zeros(16 * cells, dtype=np.int64)
    for start, index in _sample_outcomes(config, np.cumsum(tables, axis=1)):
        hist += np.bincount(index, minlength=16 * cells)
        if on_rounds is not None:
            pair, cell = np.divmod(index, cells)
            on_rounds(np.column_stack([np.arange(start, start + len(index)), pair >> 2, pair & 3,
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

    accept = np.zeros(16, dtype=bool)
    accept[[4 * i + j for i, j in config.sifting.pairs]] = True

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
    if config.channel != DepolarizingChannel(1.0):
        raise ValueError("survey is defined for the ideal channel")
    exact = np.array([_best_relabeled_agreement(t)
                      for t in _round_tables(config.channel, _PAIRS)]).reshape(4, 4)

    result = run_session(config)
    empirical = np.zeros((4, 4))
    for (i, j), counts in result.raw_counts.items():
        tot = counts.sum()
        empirical[i, j] = (_best_relabeled_agreement(counts.reshape(3, 3) / tot)
                           if tot else np.nan)

    perfect = [(i, j) for i in range(4) for j in range(4) if exact[i, j] > 1.0 - 1e-9]

    # overlap[i, j, a, b] = |<a_i|b_j*>|; receiver basis j pairs with the first
    # sender basis i that holds every one of its states
    flying = _BASES.conj()
    overlap = np.abs(np.einsum("ika,jkb->ijab", flying, flying))
    holds = np.isclose(overlap.max(axis=2), 1.0, atol=1e-9).all(axis=2)
    pairing = {j: int(np.argmax(holds[:, j])) for j in range(4) if holds[:, j].any()}
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
    analytic_qber = 1.0 - closed_form_report(params).f_a
    analytic_i_ae = eve_information(params, base=2)  # raises for y != z, before any round

    result = run_session(config)
    if result.sifted_count == 0:
        raise ValueError("no sifted rounds")

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
