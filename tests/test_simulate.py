import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from scipy.stats import chisquare

from oracles import (IDENTITY, eve_joint_distribution, max_entangled, mi_bias_bound,
                     phi_basis_state)
from qkdlab import simulate
from qkdlab.cli import _parse_channel
from qkdlab.cloner import ClonerParams, clone_state, closed_form_report, phi_cloner_matrix
from qkdlab.qudit import BasisSpec, conjugate_phi_basis_state, optimal_bases
from qkdlab.security import crossing_point, eve_information
from qkdlab.simulate import (CloningAttackChannel, DepolarizingChannel,
                             PairedIndexSifting, SimConfig, basis_correlation_survey,
                             empirical_vs_analytic, plugin_mutual_information,
                             round_distribution, run_session)


PHIS = tuple(b.phi for b in optimal_bases())


def optimal_params() -> ClonerParams:
    return crossing_point("3deb").cloner_params().normalized()


# the solved 3DEB attack to ten digits, so that no test below pays for a solve
ATTACK = CloningAttackChannel(
    ClonerParams(0.8319757912, 0.1710859978, 0.2038281325, 0.2038281325).normalized())


# --- exact round tables --------------------------------------------------------


def test_ideal_same_basis_is_delta_correlated():
    for i in range(4):
        table = round_distribution(DepolarizingChannel(1.0), i, i)
        assert np.allclose(table, np.eye(3) / 3, atol=1e-12)


def test_depolarizing_zero_visibility_is_uniform():
    table = round_distribution(DepolarizingChannel(0.0), 0, 2)
    assert np.allclose(table, np.full((3, 3), 1 / 9), atol=1e-12)


def test_depolarizing_agreement_matches_fidelity_map():
    for v in (0.25, 0.6962, 1.0):
        table = round_distribution(DepolarizingChannel(v), 1, 1)
        agreement = float(np.trace(table))
        assert abs(agreement - (2 * v / 3 + 1 / 3)) <= 1e-12


def test_all_tables_normalized():
    channels = [DepolarizingChannel(1.0), DepolarizingChannel(0.7),
                CloningAttackChannel(optimal_params())]
    for ch in channels:
        for i in range(4):
            for j in range(4):
                assert abs(round_distribution(ch, i, j).sum() - 1.0) <= 1e-12


def kron_table(i: int, j: int) -> np.ndarray:
    """The ideal table of pair (i, j) by projecting the entangled state onto
    the kron product of each sender state and conjugate receiver state."""
    ent = max_entangled(3).amps
    p = np.zeros((3, 3))
    for a in range(3):
        bra_a = phi_basis_state(PHIS[i], a).amps
        for b in range(3):
            bra_b = conjugate_phi_basis_state(PHIS[j], b)
            p[a, b] = abs(np.kron(bra_a, bra_b).conj() @ ent) ** 2
    return p


@pytest.mark.parametrize("channel", [DepolarizingChannel(v) for v in
                                     (1.0, 0.0, 0.3, 0.6962, 1.0)],
                         ids=["ideal", "depol-0", "depol-0.3", "depol-0.6962", "depol-1"])
def test_noise_tables_equal_the_kron_route(channel):
    v = channel.visibility
    tables = simulate._round_tables(channel, simulate._PAIRS)
    for (i, j), table in zip(simulate._PAIRS, tables):
        expected = v * kron_table(i, j) + (1.0 - v) / 9.0
        assert np.max(np.abs(table - expected)) <= 1e-15, (i, j)


def test_bad_basis_and_channel_params():
    with pytest.raises(ValueError):
        round_distribution(DepolarizingChannel(1.0), 4, 0)
    with pytest.raises(ValueError):
        DepolarizingChannel(1.2)


def test_attack_table_matches_analytic_structure():
    # sifted-pair table: receiver error equals the attacker's reconstruction
    # gamma - beta everywhere, its distribution is (F, (1-F)/2, (1-F)/2),
    # and the exact mutual information equals the closed form
    params = optimal_params()
    rep = closed_form_report(params)
    for i in (0, 2):
        table = round_distribution(CloningAttackChannel(params), i, i)
        err = np.zeros(3)
        joint_abm = np.zeros((3, 9))
        for a in range(3):
            for b in range(3):
                for eb in range(3):
                    for ec in range(3):
                        p = table[a, b, eb, ec]
                        if p > 1e-14:
                            assert (ec - eb) % 3 == (b - a) % 3
                        err[(b - a) % 3] += p
                        joint_abm[a, eb * 3 + (ec - eb) % 3] += p
        assert abs(err[0] - rep.f_a) <= 1e-12
        assert abs(err[1] - (1 - rep.f_a) / 2) <= 1e-12
        exact_mi = plugin_mutual_information(joint_abm, base=2)
        assert abs(exact_mi - eve_information(params, base=2)) <= 1e-12


def test_attack_tables_equal_the_closed_form_outcome_tables():
    # the state route (clone the flying qutrit, read it out) against the
    # closed-form table of the same attack on sifted pairs, cell by cell
    rng = np.random.default_rng(2718)
    cloners = [ATTACK.params, IDENTITY]
    for _ in range(3):
        v, x, y = rng.normal(size=3)
        cloners.append(ClonerParams(v, x, y, y).normalized())
    for params in cloners:
        for i, phi in enumerate(PHIS):
            table = round_distribution(CloningAttackChannel(params), i, i)
            for a in range(3):
                closed = eve_joint_distribution(params, a, verify_phi=phi)
                assert np.max(np.abs(3 * table[a] - closed)) <= 1e-12


def clone_state_table(params: ClonerParams, i: int, j: int) -> np.ndarray:
    """The attack table of pair (i, j), each flying state through clone_state."""
    mat = phi_cloner_matrix(params)
    cols = BasisSpec(PHIS[j]).matrix().conj()
    rows = []
    for a in range(3):
        flying = conjugate_phi_basis_state(PHIS[i], a)
        t = clone_state(mat, flying).reshape(3, 3, 3)
        amps = np.einsum("abc,ai,bj,ck->ijk", t, cols.conj(), cols.conj(), cols)
        rows.append(np.abs(amps) ** 2)
    return np.array(rows) / 3.0


def test_attack_tables_equal_the_clone_state_route_bitwise():
    # the session clones each flying state once for all four receiver
    # bases, and that moves no bit; both routes pass clone_state's checks
    rng = np.random.default_rng(2718)
    cloners = [ATTACK.params, IDENTITY]
    for _ in range(3):
        v, x, y = rng.normal(size=3)
        cloners.append(ClonerParams(v, x, y, y).normalized())
    for params in cloners:
        channel = CloningAttackChannel(params)
        session = simulate._round_tables(channel, simulate._PAIRS)
        for (i, j), table in zip(simulate._PAIRS, session):
            expected = clone_state_table(params, i, j)
            assert np.array_equal(table, expected), (params, i, j)
            assert np.array_equal(round_distribution(channel, i, j), expected), (params, i, j)


def test_attack_table_receiver_marginal_off_diagonal_pairs():
    # off-diagonal pairs still carry a normalized, attack-dependent table
    params = optimal_params()
    table = round_distribution(CloningAttackChannel(params), 0, 1)
    assert table.shape == (3, 3, 3, 3)
    a_marg = table.sum(axis=(1, 2, 3))
    assert np.allclose(a_marg, 1 / 3, atol=1e-12)  # sender outcome uniform


# --- sessions ------------------------------------------------------------------


def test_ideal_session_qber_exactly_zero():
    res = run_session(SimConfig(rounds=100_000, seed=7))
    assert res.qber == 0.0
    assert res.sifted_count > 0


def test_sifted_fraction_quarter():
    res = run_session(SimConfig(rounds=100_000, seed=11))
    se = math.sqrt(0.25 * 0.75 / 100_000)
    assert abs(res.sifted_fraction - 0.25) <= 3 * se


def test_attack_session_qber_near_crossing_error_rate():
    params = optimal_params()
    expected = 1.0 - closed_form_report(params).f_a
    res = run_session(SimConfig(rounds=100_000, seed=3,
                                channel=CloningAttackChannel(params)))
    assert abs(res.qber - expected) <= 3 * res.qber_se


@pytest.mark.parametrize("v", [0.25, 0.5, 0.75, 1.0])
def test_depolarizing_qber(v):
    res = run_session(SimConfig(rounds=100_000, seed=13,
                                channel=DepolarizingChannel(v)))
    expected = (1 - v) * 2 / 3
    se = max(res.qber_se, 1e-9)
    assert abs(res.qber - expected) <= 3 * se


def test_depolarizing_at_threshold_visibility():
    # at the nonlocality threshold the error rate sits at 1 - 0.7974
    res = run_session(SimConfig(rounds=100_000, seed=13,
                                channel=DepolarizingChannel(0.6962)))
    assert abs(res.qber - (1 - 0.7974)) <= 3 * res.qber_se


def test_session_deterministic():
    cfg = SimConfig(rounds=30_000, seed=42,
                    channel=CloningAttackChannel(optimal_params()))
    r1 = run_session(cfg)
    r2 = run_session(SimConfig(rounds=30_000, seed=42,
                               channel=CloningAttackChannel(optimal_params())))
    assert r1.qber == r2.qber
    assert r1.empirical_i_ae == r2.empirical_i_ae
    for key in r1.raw_counts:
        assert np.array_equal(r1.raw_counts[key], r2.raw_counts[key])


def test_empirical_frequencies_match_tables_chisquare():
    # goodness of fit of sampled counts against the exact tables, fixed seed
    channels = [DepolarizingChannel(1.0), DepolarizingChannel(0.7),
                CloningAttackChannel(optimal_params())]
    for ch in channels:
        res = run_session(SimConfig(rounds=100_000, seed=20, channel=ch))
        for (i, j), counts in res.raw_counts.items():
            probs = round_distribution(ch, i, j).reshape(-1)
            n = counts.sum()
            if n == 0:
                continue
            exp = probs * n
            structural = exp <= 0
            assert counts[structural].sum() == 0
            big = exp >= 5
            f_obs = list(counts[big].astype(float))
            f_exp = list(exp[big])
            small = ~structural & ~big
            if small.any():
                f_obs.append(float(counts[small].sum()))
                f_exp.append(float(exp[small].sum()))
            p = chisquare(f_obs, f_exp).pvalue
            assert p > 0.001, (ch, i, j, p)


@pytest.mark.parametrize("channel", [DepolarizingChannel(1.0), DepolarizingChannel(0.5), ATTACK],
                         ids=["ideal", "depolarizing", "attack"])
def test_same_index_sifting_is_the_diagonal_pair_list(channel):
    base = dict(rounds=20_000, seed=4, channel=channel, alice_weights=(0.1, 0.2, 0.3, 0.4))
    same = run_session(SimConfig(**base, sifting=PairedIndexSifting()))
    listed = run_session(SimConfig(
        **base, sifting=PairedIndexSifting(((0, 0), (1, 1), (2, 2), (3, 3)))))
    for f in dataclasses.fields(same):
        a, b = getattr(same, f.name), getattr(listed, f.name)
        if isinstance(a, dict):
            assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_config_params_are_normalized_like_the_flag():
    # [1, 0, 0, 0.5] is off the normalization surface; the file and the
    # --channel flag rescale it alike
    data = {"rounds": 20_000, "seed": 9,
            "channel": {"type": "cloning", "params": [1, 0, 0, 0.5]}}
    from_config = run_session(SimConfig.from_json(data))
    from_flag = run_session(SimConfig(rounds=20_000, seed=9,
                                      channel=_parse_channel("clone:1,0,0,0.5")))
    for f in dataclasses.fields(from_config):
        a, b = getattr(from_config, f.name), getattr(from_flag, f.name)
        if isinstance(a, dict):
            assert a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_sim_config_is_frozen():
    cfg = SimConfig(rounds=10, seed=0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.rounds = 0


def test_zero_sifted_rounds_reported():
    cfg = SimConfig(rounds=500, seed=1, sifting=PairedIndexSifting(()))
    res = run_session(cfg)
    assert res.sifted_count == 0
    assert res.qber is None and res.qber_se is None


def test_paired_sifting_keeps_selected_pairs():
    cfg = SimConfig(rounds=100_000, seed=5,
                    sifting=PairedIndexSifting(((0, 0), (1, 3))))
    res = run_session(cfg)
    se = math.sqrt((2 / 16) * (14 / 16) / cfg.rounds)
    assert abs(res.sifted_fraction - 2 / 16) <= 3 * se
    # pair (0,0) is perfect, pair (1,3) agrees with probability 4/9
    expected_qber = (0.0 + 5 / 9) / 2
    assert abs(res.qber - expected_qber) <= 3 * res.qber_se


def test_basis_correlation_matrix_diag_is_one_ideal():
    res = run_session(SimConfig(rounds=50_000, seed=9))
    assert np.allclose(np.diag(res.basis_correlation_matrix), 1.0, atol=1e-12)


def test_qber_consistent_with_histogram_recomputation():
    cfg = SimConfig(rounds=60_000, seed=31,
                    channel=CloningAttackChannel(optimal_params()))
    res = run_session(cfg)
    sifted = errors = 0
    for (i, j), counts in res.raw_counts.items():
        if i != j:
            continue
        for idx, c in enumerate(counts):
            a, b = idx // 27, (idx // 9) % 3
            sifted += int(c)
            errors += int(c) if a != b else 0
    assert sifted == res.sifted_count
    assert abs(errors / sifted - res.qber) <= 1e-15


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(rounds=10, seed=0, alice_weights=(0.5, 0.5, 0.0, 0.1))
    with pytest.raises(ValueError):
        run_session(SimConfig(rounds=0, seed=0))
    with pytest.raises(ValueError):
        PairedIndexSifting(((0, 5),))


def test_config_json_roundtrip():
    data = {
        "rounds": 5000,
        "seed": 21,
        "channel": {"type": "depolarizing", "visibility": 0.5},
        "sifting": {"rule": "pairs", "pairs": [[0, 0], [2, 2]]},
    }
    cfg = SimConfig.from_json(data)
    direct = SimConfig(rounds=5000, seed=21, channel=DepolarizingChannel(0.5),
                       sifting=PairedIndexSifting(((0, 0), (2, 2))))
    r1, r2 = run_session(cfg), run_session(direct)
    assert r1.qber == r2.qber and r1.sifted_count == r2.sifted_count


# --- attacker information, empirical vs analytic --------------------------------


def test_empirical_vs_analytic_at_optimum():
    cfg = SimConfig(rounds=100_000, seed=2,
                    channel=CloningAttackChannel(optimal_params()))
    rec = empirical_vs_analytic(cfg)
    assert rec.qber_sigmas <= 3.0
    assert rec.i_ae_sigmas <= 3.0
    # at the crossing the attacker knows as much as the receiver
    assert abs(rec.analytic_i_ae
               - (math.log2(3) - _h3(1 - rec.analytic_qber))) <= 1e-9


def test_empirical_vs_analytic_rejects_a_broken_tie_before_sampling(monkeypatch):
    def no_session(config):
        raise AssertionError("the session ran before the cloner was checked")

    monkeypatch.setattr(simulate, "run_session", no_session)
    cfg = SimConfig(rounds=2_000_000, seed=2, channel=CloningAttackChannel(
        ClonerParams(0.8, 0.2, 0.2, 0.25).normalized()))
    with pytest.raises(ValueError, match="y != z"):
        empirical_vs_analytic(cfg)


def _h3(f):
    probs = [f, (1 - f) / 2, (1 - f) / 2]
    return -sum(p * math.log2(p) for p in probs if p > 0)


def test_empirical_vs_analytic_requires_enough_rounds():
    cfg = SimConfig(rounds=10_000, seed=2,
                    channel=CloningAttackChannel(optimal_params()))
    with pytest.raises(ValueError):
        empirical_vs_analytic(cfg)
    with pytest.raises(ValueError):
        empirical_vs_analytic(SimConfig(rounds=100_000, seed=2))


def test_identity_attack_leaks_nothing():
    cfg = SimConfig(rounds=100_000, seed=17,
                    channel=CloningAttackChannel(IDENTITY))
    res = run_session(cfg)
    assert res.qber == 0.0
    bound = mi_bias_bound(27, res.sifted_count, base=2)
    assert 0.0 <= res.empirical_i_ae <= bound


def test_plugin_bias_decays_with_rounds():
    # plug-in mutual information bias scales like 1/rounds
    values = {}
    for rounds in (20_000, 200_000):
        res = run_session(SimConfig(rounds=rounds, seed=23,
                                    channel=CloningAttackChannel(IDENTITY)))
        values[rounds] = res.empirical_i_ae
        assert res.empirical_i_ae <= mi_bias_bound(27, res.sifted_count, base=2)
    assert values[200_000] < values[20_000]


# --- survey ----------------------------------------------------------------------


def test_survey_exact_matrix_matches_closed_forms():
    res = basis_correlation_survey(SimConfig(rounds=100_000, seed=5))
    high = (4 + 2 * math.sqrt(3)) / 9
    for i in range(4):
        for j in range(4):
            sep = abs(i - j)
            expected = {0: 1.0, 1: high, 2: 4 / 9, 3: high}[sep]
            assert abs(res.exact[i, j] - expected) <= 1e-9, (i, j)


def test_survey_perfect_pairs_enumeration():
    res = basis_correlation_survey(SimConfig(rounds=20_000, seed=5))
    assert res.perfect_pairs == [(i, i) for i in range(4)]
    # non-correlated pairs sit strictly below 1
    off = [res.exact[i, j] for i in range(4) for j in range(4) if i != j]
    assert max(off) < 1 - 1e-9


def test_survey_conjugate_pairing_two_by_two():
    res = basis_correlation_survey(SimConfig(rounds=1_000, seed=5))
    assert res.conjugate_pairing == {0: 0, 1: 3, 2: 2, 3: 1}


def test_survey_empirical_close_to_exact():
    res = basis_correlation_survey(SimConfig(rounds=200_000, seed=29))
    assert np.nanmax(np.abs(res.empirical - res.exact)) <= 0.02


def test_survey_requires_ideal_channel():
    with pytest.raises(ValueError):
        basis_correlation_survey(SimConfig(rounds=100, seed=0,
                                           channel=DepolarizingChannel(0.5)))
    with pytest.raises(ValueError):
        basis_correlation_survey(SimConfig(rounds=100, seed=0, channel=ATTACK))


def test_survey_takes_the_ideal_source_as_a_library_caller_builds_it():
    # the default channel and an explicit visibility of 1 are one source
    default = basis_correlation_survey(SimConfig(rounds=2_000, seed=5))
    for channel in (DepolarizingChannel(1.0), DepolarizingChannel(1)):
        res = basis_correlation_survey(SimConfig(rounds=2_000, seed=5, channel=channel))
        assert np.array_equal(res.exact, default.exact)
        assert np.array_equal(res.empirical, default.empirical)
        assert (res.perfect_pairs, res.conjugate_pairing) == (
            default.perfect_pairs, default.conjugate_pairing)


# --- streaming engine against the mask-per-pair reference -----------------------


def reference_session(config: SimConfig) -> dict:
    """The earlier engine, kept as the oracle: the whole (rounds, 3) uniform
    table at once, one boolean mask per basis pair to sample the cells and
    one more per pair to histogram them."""
    tables = {(i, j): round_distribution(config.channel, i, j)
              for i in range(4) for j in range(4)}
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(config.seed)))
    u = gen.random((config.rounds, 3))
    ai = np.clip(np.searchsorted(np.cumsum(config.alice_weights), u[:, 0], side="right"), 0, 3)
    bj = np.clip(np.searchsorted(np.cumsum(config.bob_weights), u[:, 1], side="right"), 0, 3)
    cells = np.zeros(config.rounds, dtype=np.int64)
    for (i, j), table in tables.items():
        mask = (ai == i) & (bj == j)
        if not mask.any():
            continue
        cum = np.cumsum(table.reshape(-1))
        idx = np.searchsorted(cum, u[mask, 2], side="right")
        cells[mask] = np.clip(idx, 0, table.size - 1)

    attacked = isinstance(config.channel, CloningAttackChannel)
    if attacked:
        a, b = cells // 27, (cells // 9) % 3
        e_b, e_c = (cells // 3) % 3, cells % 3
    else:
        a, b = cells // 3, cells % 3
    if config.sifting.pairs == PairedIndexSifting().pairs:
        sift = ai == bj
    else:
        accept = np.zeros((4, 4), dtype=bool)
        for i, j in config.sifting.pairs:
            accept[i, j] = True
        sift = accept[ai, bj]

    n_sift = int(sift.sum())
    qber = qber_se = None
    if n_sift > 0:
        qber = int((a[sift] != b[sift]).sum()) / n_sift
        qber_se = math.sqrt(max(qber * (1.0 - qber), 0.0) / n_sift)
    corr = np.full((4, 4), np.nan)
    raw_counts = {}
    for (i, j), table in tables.items():
        mask = (ai == i) & (bj == j)
        raw_counts[(i, j)] = np.bincount(cells[mask], minlength=table.size)
        if mask.any():
            corr[i, j] = float((a[mask] == b[mask]).sum()) / int(mask.sum())
    attack_counts = empirical_i_ae = None
    if attacked and n_sift > 0:
        m = (e_c[sift] - e_b[sift]) % 3
        flat = a[sift] * 9 + e_b[sift] * 3 + m
        attack_counts = np.bincount(flat, minlength=27).reshape(3, 3, 3)
        empirical_i_ae = plugin_mutual_information(attack_counts.reshape(3, 9))
    return dict(sifted_count=n_sift, qber=qber, qber_se=qber_se,
                basis_correlation_matrix=corr, raw_counts=raw_counts,
                attack_counts=attack_counts, empirical_i_ae=empirical_i_ae,
                rows=np.column_stack([np.arange(config.rounds), ai, bj, a, b]))


def assert_same_statistics(res, ref: dict) -> None:
    assert res.sifted_count == ref["sifted_count"]
    assert res.qber == ref["qber"] and res.qber_se == ref["qber_se"]
    assert np.array_equal(res.basis_correlation_matrix, ref["basis_correlation_matrix"],
                          equal_nan=True)
    assert list(res.raw_counts) == list(ref["raw_counts"])
    for key, counts in ref["raw_counts"].items():
        assert np.array_equal(res.raw_counts[key], counts), key
    assert res.empirical_i_ae == ref["empirical_i_ae"]
    if ref["attack_counts"] is None:
        assert res.attack_counts is None
    else:
        assert np.array_equal(res.attack_counts, ref["attack_counts"])


CHANNELS = {
    "ideal": DepolarizingChannel(1.0),
    "depolarizing": DepolarizingChannel(0.6962),
    "attack": ATTACK,
    "identity-attack": CloningAttackChannel(IDENTITY),
}


# the oracle compares whole sessions of at least this many rounds, whatever
# the chunk size
LONG_SESSION = 655_360


@pytest.mark.parametrize("channel", list(CHANNELS), ids=list(CHANNELS))
@pytest.mark.parametrize("rounds", [1, simulate._CHUNK, 5 * simulate._CHUNK // 2, LONG_SESSION],
                         ids=["one-round", "one-chunk", "2.5-chunks", "long-session"])
def test_streaming_engine_equals_reference(channel, rounds):
    config = SimConfig(rounds=rounds, seed=7, channel=CHANNELS[channel])
    assert_same_statistics(run_session(config), reference_session(config))


@pytest.mark.parametrize("channel", list(CHANNELS), ids=list(CHANNELS))
def test_streaming_engine_equals_reference_uneven_weights_paired_sifting(channel):
    # basis 3 of the sender is never chosen; pair (1,3) mixes unequal bases;
    # the session ends halfway through a chunk
    config = SimConfig(
        rounds=LONG_SESSION + simulate._CHUNK // 2, seed=11, channel=CHANNELS[channel],
        alice_weights=(0.5, 0.3, 0.2, 0.0), bob_weights=(0.1, 0.2, 0.3, 0.4),
        sifting=PairedIndexSifting(((0, 0), (1, 3), (2, 2), (3, 3))))
    assert_same_statistics(run_session(config), reference_session(config))


def test_round_rows_stream_in_order_for_any_chunk_size(monkeypatch):
    # a chunk size that does not divide the round count gives the same
    # statistics and the same per-round rows, chunk after chunk
    config = SimConfig(rounds=2_500, seed=3, channel=ATTACK,
                       alice_weights=(0.1, 0.2, 0.3, 0.4))
    ref = reference_session(config)
    monkeypatch.setattr(simulate, "_CHUNK", 999)
    chunks = []
    res = run_session(config, on_rounds=chunks.append)
    assert [len(c) for c in chunks] == [999, 999, 502]
    assert np.array_equal(np.concatenate(chunks), ref["rows"])
    assert_same_statistics(res, ref)


def boundary_draws(cum: np.ndarray) -> np.ndarray:
    """53-bit draws k at and beside every threshold of ``cum`` and every
    guide-bucket edge, followed by 100,000 draws of the generator."""
    grid = 2.0 ** -53
    buckets = 1 << simulate._GUIDE_BITS
    u_gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).random(100_000)
    candidates = {0.0, 1.0 - grid}
    candidates.update(k / buckets for k in range(buckets))
    candidates.update(k / buckets - grid for k in range(1, buckets + 1))
    for c in cum.ravel():
        for v in (c, np.nextafter(c, 0.0), np.nextafter(c, 2.0)):
            # snap down and up onto the values the generator can return
            candidates.update((math.floor(v / grid) * grid, math.ceil(v / grid) * grid))
    u = np.array(sorted(x for x in candidates if 0.0 <= x < 1.0))
    u = np.concatenate([u, u_gen])
    # the integer lookups rely on the generator returning multiples of 2**-53
    assert np.array_equal(u / grid, np.floor(u / grid))
    return u, (u / grid).astype(np.int64)


def outcome_index(cum, k, alice_weights=simulate._UNIFORM4, bob_weights=simulate._UNIFORM4):
    """The engine's flat index of rounds whose (n, 3) 53-bit draws are ``k``.

    Each raw output is k << 11 with its 11 low bits set, bits the lookup
    must ignore."""
    raw = (k.astype(np.uint64) << np.uint64(11)) | np.uint64(0x7FF)
    return simulate._outcome_index(simulate._outcome_search(cum, alice_weights, bob_weights),
                                   raw)


def expected_cell(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF cell of each uniform u, as the float ``searchsorted`` puts it."""
    return np.clip(np.searchsorted(cum, u, side="right"), 0, len(cum) - 1)


def test_cell_lookup_exact_at_cdf_boundaries():
    # zero-probability cells repeat CDF values; dyadic entries put CDF
    # values (and guide-bucket starts) on the grid; the first row passes 1
    # before its last cell, so its keys must be capped below the next
    # row's; the second-to-last sums to just under 1
    rows = np.array([
        [0.5, 0.0, 0.25, 0.0, 0.125, 0.125 + 2 ** -50, 0.0, 0.0, 0.0],
        [0.25, 0.0, 0.25, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0],
        [1 / 9] * 9,
        [0.0] * 8 + [1.0],
        [1.0] + [0.0] * 8,
        [1 / 1024, 0.0, 3 / 1024, 1 / 3, 0.0, 0.0, 1 / 7, 0.0, 0.0],
        [0.0, 0.1, 0.0, 0.2, 0.0, 0.3, 0.0, 0.0, 0.4 - 1e-13],
    ])
    rows[5, -1] = 1.0 - rows[5, :-1].sum()
    cum = np.cumsum(rows, axis=1)
    cells = cum.shape[1]
    u, k = boundary_draws(cum)

    for p, row_cum in enumerate(cum):
        # uniform weights: the draw (2i + 1) / 8 picks basis i, mid-bucket
        i, j = divmod(p, 4)
        bases = np.array([2 * i + 1, 2 * j + 1], dtype=np.int64) << 50
        draws = np.column_stack([np.broadcast_to(bases, (len(k), 2)), k])
        assert np.array_equal(outcome_index(cum, draws), p * cells + expected_cell(row_cum, u)), p


@pytest.mark.parametrize("weights", [
    (0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0), (0.0, 0.5, 0.0, 0.5),
    (0.25, 0.25, 0.25, 0.25), (0.125, 0.375, 0.25, 0.25), (2 ** -10, 0.5, 0.0, 0.5 - 2 ** -10),
    (0.25 - 2 ** -53, 0.5 + 2 ** -53, 0.0, 0.25), (0.5, 0.5, 0.0, 0.0), (0.1, 0.2, 0.3, 0.4),
    (0.3, 0.3, 0.4 - 1e-13, 0.0),
], ids=["last-only", "first-only", "zeros-between", "uniform", "dyadic", "bucket-start",
        "bucket-end", "one-before-last", "decimal", "under-one"])
def test_basis_pick_exact_at_cdf_boundaries(weights):
    # dyadic thresholds land on guide-bucket starts, and one grid step
    # below a start is the last draw of a bucket; a cumulative sum can
    # reach 1 before the last basis, or end just under 1.  Both parties use
    # the weights, on the draws in opposite orders.
    cum = np.cumsum(weights)
    u, k = boundary_draws(cum)
    cells = np.cumsum(np.full((16, 9), 1 / 9), axis=1)
    index = outcome_index(cells, np.column_stack([k, k[::-1], k]), weights, weights)
    pair = 4 * expected_cell(cum, u) + expected_cell(cum, u[::-1])
    assert np.array_equal(index, pair * 9 + expected_cell(cells[0], u))


def test_split_sender_receiver_and_cell_buckets_share_one_fallback():
    # a sender threshold, a receiver threshold and a cell threshold each
    # split a guide bucket; one chunk holds every mix of draws on either
    # side of each threshold and draws in whole buckets, the first bucket
    # among them, where a split basis bucket's offset past the cell guide
    # is smallest
    alice_weights, bob_weights = (0.1, 0.2, 0.3, 0.4), (0.3, 0.3, 0.2, 0.2)
    cells = np.cumsum(np.full((16, 9), 1 / 9), axis=1)
    shift = 53 - simulate._GUIDE_BITS
    columns = []
    for cum, threshold, whole in ((np.cumsum(alice_weights), 0.1, 0.05),
                                  (np.cumsum(bob_weights), 0.3, 0.5), (cells[0], 1 / 9, 0.5)):
        edge = math.ceil(threshold * 2 ** 53)
        draws = np.array([edge - 1, edge, 0, int(whole * 2 ** 53)], dtype=np.int64)
        # the threshold's bucket is split, the other draws' are whole
        guide = simulate._cell_search(cum[None, :])[1]
        assert guide[edge >> shift] == -1 and (guide[draws[2:] >> shift] >= 0).all()
        columns.append(draws)
    k = np.array(np.meshgrid(*columns, indexing="ij")).reshape(3, -1).T
    u = k * 2.0 ** -53
    pair = (4 * expected_cell(np.cumsum(alice_weights), u[:, 0])
            + expected_cell(np.cumsum(bob_weights), u[:, 1]))
    assert np.array_equal(outcome_index(cells, k, alice_weights, bob_weights),
                          pair * 9 + expected_cell(cells[0], u[:, 2]))


@pytest.mark.parametrize("seed", [0, 7, 2 ** 40])
@pytest.mark.parametrize("rounds", [1, 999, 12 * simulate._CHUNK + 1])
def test_raw_draws_are_the_integers_behind_generator_random(seed, rounds):
    # the engine reads round r from raw outputs 3r to 3r + 2, shifted to 53 bits
    raw = np.random.Philox(np.random.SeedSequence(seed)).random_raw(3 * rounds) >> 11
    u = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed))).random((rounds, 3))
    assert np.array_equal(raw.reshape(rounds, 3).astype(np.float64), u * 2.0 ** 53)


def test_session_memory_does_not_grow_with_rounds():
    def traced_peak(rounds):
        tracemalloc.start()
        try:
            run_session(SimConfig(rounds=rounds, seed=0, channel=ATTACK))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = traced_peak(1_000_000), traced_peak(4_000_000)
    one_chunk_uniforms = simulate._CHUNK * 3 * 8
    assert large <= small + one_chunk_uniforms
    # a (rounds, 3) uniform table alone would take 96 MB at 4e6 rounds
    assert large < 64e6


@pytest.mark.parametrize("channel", [ATTACK, DepolarizingChannel(1.0)], ids=["attack", "ideal"])
def test_session_working_memory_stays_under_one_and_a_half_mb(channel):
    # a chunk of 8,192 rounds takes about 0.9 MB at its traced peak; the
    # first session's one-off costs (table build, imports) are left out
    config = SimConfig(rounds=1_000_000, seed=0, channel=channel)
    run_session(config)
    tracemalloc.start()
    try:
        run_session(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_config_from_json_rejects_malformed_input():
    # cases beyond the CLI's malformed-config tests
    good = {"rounds": 10, "seed": 1}
    for bad in ([good], {"rounds": 10, "seed": 1.5}, {"rounds": 10, "seed": -1},
                dict(good, channel="ideal"),
                dict(good, channel={"type": "cloning", "params": [math.nan, 0, 0, 0]}),
                dict(good, channel={"type": "cloning", "params": [1e200, 0, 0, 0]}),
                dict(good, channel={"type": "cloning", "params": [1, 0, 0]}),
                dict(good, sifting={"rule": "pairs"})):
        with pytest.raises(ValueError):
            SimConfig.from_json(bad)
    assert SimConfig.from_json(good).rounds == 10
