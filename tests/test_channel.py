import json
import math

import numpy as np
import pytest

from cqcap import (
    CqChannel,
    InputDistribution,
    channel_from_jsonable,
    channel_to_jsonable,
    holevo_quantity,
    independence_check,
    kl_divergence_bits,
    load_channel,
    random_channel,
    save_channel,
    validate_density,
)
from cqcap.errors import (
    BadParams,
    BadTrace,
    DimensionMismatch,
    LengthMismatch,
    NotHermitian,
    NotPSD,
)
from cqcap.reference import (
    log_on_support,
    output_state,
    quantum_relative_entropy,
    trace_product,
    von_neumann_entropy,
)
from helpers import (
    NONORTH_PAIR_CAPACITY,
    binary_entropy_bits,
    count_eigvalsh_calls,
    kernel_projector,
    nonorthogonal_pair_channel,
    orthogonal_channel,
    random_density_matrix,
    random_simplex_point,
)


class TestInputDistribution:
    def test_valid_vector(self):
        d = InputDistribution([0.25, 0.75])
        assert np.allclose(d.probs, [0.25, 0.75])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            InputDistribution([1.1, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            InputDistribution([0.5, 0.4])

    @pytest.mark.parametrize("probs, message", [
        (np.full((2, 2), 0.25), "non-empty 1-D vector"),
        ([], "non-empty 1-D vector"),
        ([np.nan, 1.0], "must be finite"),
        ([np.inf, 0.0], "must be finite"),
    ], ids=["2-d", "empty", "nan", "inf"])
    def test_malformed_vector_rejected(self, probs, message):
        with pytest.raises(ValueError, match=message):
            InputDistribution(probs)

    def test_uniform_and_point_mass(self):
        assert np.allclose(InputDistribution.uniform(4).probs, 0.25)
        assert np.allclose(InputDistribution.point_mass(3, 1).probs, [0, 1, 0])

    @pytest.mark.parametrize("n, letter", [(3, -1), (3, 3), (3, 5), (0, 0)])
    def test_point_mass_off_the_alphabet_rejected(self, n, letter):
        # -1 would index the last letter
        with pytest.raises(ValueError, match=f"letter {letter} is not one of the {n} letters"):
            InputDistribution.point_mass(n, letter)

    @pytest.mark.parametrize("n", [0, -2])
    def test_uniform_over_no_letter_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least one letter, got {n}"):
            InputDistribution.uniform(n)

    @pytest.mark.parametrize("make, message", [
        (lambda: InputDistribution.point_mass(3, 1.5), "letter must be an integer, got 1.5"),
        (lambda: InputDistribution.point_mass(3, True), "letter must be an integer, got True"),
        (lambda: InputDistribution.point_mass(2.0, 1), "letter count must be an integer, got 2.0"),
        (lambda: InputDistribution.uniform(2.5), "letter count must be an integer, got 2.5"),
        (lambda: InputDistribution.uniform(True), "letter count must be an integer, got True"),
    ], ids=["float-letter", "bool-letter", "float-count", "float-uniform", "bool-uniform"])
    def test_non_integer_count_or_letter_rejected(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_numpy_integers_accepted(self):
        assert np.array_equal(InputDistribution.point_mass(np.int64(3), np.int32(2)).probs,
                              [0.0, 0.0, 1.0])
        assert np.allclose(InputDistribution.uniform(np.int64(4)).probs, 0.25)


class TestOutputState:
    def test_point_mass_returns_that_state(self):
        ch = nonorthogonal_pair_channel()
        rho = output_state(ch, [1.0, 0.0])
        assert np.allclose(rho.matrix, ch.states[0].matrix)

    def test_uniform_over_orthogonal_is_maximally_mixed(self):
        ch = orthogonal_channel(2)
        rho = output_state(ch, [0.5, 0.5])
        assert np.allclose(rho.matrix, np.eye(2) / 2)

    def test_uniform_nonorthogonal_pair(self):
        ch = nonorthogonal_pair_channel()
        rho = output_state(ch, [0.5, 0.5])
        assert np.allclose(rho.matrix, [[0.75, 0.25], [0.25, 0.25]])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            output_state(orthogonal_channel(2), [1.0, 0.0, 0.0])


class TestHolevoQuantity:
    def test_orthogonal_uniform_is_one_bit(self):
        assert holevo_quantity(orthogonal_channel(2), [0.5, 0.5]) == pytest.approx(1.0)

    def test_point_mass_is_zero(self):
        ch = random_channel(3, 2, 5, "mixed")
        assert holevo_quantity(ch, [0.0, 1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_nonorthogonal_pair_value(self):
        chi = holevo_quantity(nonorthogonal_pair_channel(), [0.5, 0.5])
        assert chi == pytest.approx(NONORTH_PAIR_CAPACITY, abs=1e-12)
        assert chi == pytest.approx(binary_entropy_bits((1 - 1 / math.sqrt(2)) / 2), abs=1e-12)
        assert chi == pytest.approx(0.600876, abs=1e-6)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(41)
        for i in range(50):
            ch = random_channel(2 + i % 3, 2, int(rng.integers(1 << 30)), "mixed")
            assert holevo_quantity(ch, random_simplex_point(rng, ch.size)) >= 0.0

    def test_concavity_in_the_distribution(self):
        rng = np.random.default_rng(43)
        for i in range(50):
            ch = random_channel(3, 2, i, "mixed")
            p = random_simplex_point(rng, 3)
            q = random_simplex_point(rng, 3)
            t = float(rng.random())
            mixed = holevo_quantity(ch, t * p + (1 - t) * q)
            assert mixed >= t * holevo_quantity(ch, p) + (1 - t) * holevo_quantity(ch, q) - 1e-9

    def test_ensemble_divergence_identity(self):
        rng = np.random.default_rng(47)
        for i in range(30):
            ch = random_channel(3, 3, 100 + i, "mixed")
            p = random_simplex_point(rng, 3)
            mixture = output_state(ch, p)
            ensemble = sum(
                p[x] * quantum_relative_entropy(ch.states[x], mixture) for x in range(3)
            )
            assert holevo_quantity(ch, p) == pytest.approx(ensemble, abs=1e-8)

    def test_mixing_chain_inequality(self):
        # classical term plus per-letter divergences dominates the mixture divergence
        rng = np.random.default_rng(53)
        for _ in range(50):
            n, m = 3, 3
            p = random_simplex_point(rng, n, floor=0.01)
            q = random_simplex_point(rng, n, floor=0.01)
            rhos = [random_density_matrix(rng, m) for _ in range(n)]
            sigmas = [random_density_matrix(rng, m) for _ in range(n)]
            lhs = kl_divergence_bits(p, q) + sum(
                p[x] * quantum_relative_entropy(rhos[x], sigmas[x]) for x in range(n)
            )
            rho_bar = output_state(CqChannel(rhos), p)
            sigma_bar = output_state(CqChannel(sigmas), q)
            assert lhs >= quantum_relative_entropy(rho_bar, sigma_bar) - 1e-9


def _kinds_of_states(rng, m: int):
    """Pure, mixed, diagonal and zero-padded rank-deficient m x m states."""
    ket = rng.normal(size=m) + 1j * rng.normal(size=m)
    ket /= np.linalg.norm(ket)
    mixed = random_density_matrix(rng, m).matrix
    diagonal = np.diag(random_simplex_point(rng, m)).astype(complex)
    padded = np.zeros((m, m), dtype=complex)
    padded[:-1, :-1] = random_density_matrix(rng, m - 1).matrix
    return [np.outer(ket, ket.conj()), mixed, diagonal, padded]


class TestStackValidation:
    """A channel validates its raw states in one batch, under the single-state rule."""

    def test_batched_states_equal_single_validation(self):
        rng = np.random.default_rng(61)
        for m in (2, 3, 5, 8):
            mats = _kinds_of_states(rng, m) + _kinds_of_states(rng, m)
            ch = CqChannel(mats)
            for raw, rho in zip(mats, ch.states):
                single = validate_density(raw)
                assert np.array_equal(rho.matrix, single.matrix)
                assert np.array_equal(rho.eigenvalues, single.eigenvalues)
                assert rho.rank == single.rank

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0.5, 0.3], [0.0, 0.5]]), NotHermitian),
        (np.diag([0.6, 0.5]), BadTrace),
        (np.diag([1.5, -0.5]), NotPSD),
        (np.array([[np.nan, 0.0], [0.0, 0.5]]), ValueError),
    ])
    def test_bad_state_is_named_by_index(self, bad, error):
        with pytest.raises(error):
            validate_density(bad)
        good = [np.eye(2) / 2, np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]
        for k in range(4):
            mats = good[:k] + [bad] + good[k:]
            with pytest.raises(error, match=f"state {k}:"):
                CqChannel(mats)

    @pytest.mark.parametrize("bad, error", [
        (np.array([[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]), NotHermitian),
        (np.diag([0.6, 0.5, 0.0]), BadTrace),
        (np.diag([1.5, -0.5, 0.0]), NotPSD),
        (np.diag([1.0, 1e-11, -1e-11]), NotPSD),
        (np.array([[np.inf, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), ValueError),
    ], ids=["asymmetric", "trace", "negative", "negative-beside-pure", "infinite"])
    def test_bad_state_among_pure_and_mixed_is_named_by_index(self, bad, error):
        # the pure states skip the eigenvalues, the mixed ones take them
        rng = np.random.default_rng(73)
        ket = rng.normal(size=3) + 1j * rng.normal(size=3)
        ket /= np.linalg.norm(ket)
        good = [np.outer(ket, ket.conj()), random_density_matrix(rng, 3).matrix,
                np.diag([1.0, 0.0, 0.0]), np.eye(3) / 3]
        for k in range(len(good) + 1):
            with pytest.raises(error, match=f"state {k}:"):
                CqChannel(good[:k] + [bad] + good[k:])

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 2)], ids=["diagonal", "off-diagonal"])
    def test_a_non_finite_state_is_named_before_a_non_hermitian_one(self, entry, where):
        # finiteness is checked first, over the whole stack, so the state
        # with the non-finite entry is named though an earlier one fails the
        # Hermitian check and a later one the trace
        rng = np.random.default_rng(107)
        ket = rng.normal(size=3) + 1j * rng.normal(size=3)
        ket /= np.linalg.norm(ket)
        pure = np.outer(ket, ket.conj())
        broken = pure.copy()
        broken[where] = entry
        states = [pure, random_density_matrix(rng, 3).matrix,
                  np.array([[0.5, 0.3, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]]),
                  np.eye(3) / 3, broken, np.diag([0.6, 0.5, 0.0]), pure]
        with pytest.raises(ValueError, match="state 4: matrix entries must be finite"):
            CqChannel(states)

    def test_the_input_arrays_are_left_unchanged(self):
        # pure states that are repaired and mixed ones that are clamped, as a
        # list of arrays and as one stacked array
        rng = np.random.default_rng(109)
        clamped = np.diag([1.0 + 1e-15, -1e-15, 0.0, 0.0, 0.0]).astype(complex)
        states = _kinds_of_states(rng, 5) + [clamped]
        for given in (states, np.array(states)):
            kept = [s.tobytes() for s in given]
            CqChannel(given)
            assert [s.tobytes() for s in given] == kept

    @pytest.mark.parametrize("kinds, calls", [
        ("pure", []), ("mixed", [(3, 5, 5)]), ("both", [(3, 5, 5)]),
    ])
    def test_only_states_that_are_not_rank_one_take_eigenvalues(self, monkeypatch, kinds, calls):
        rng = np.random.default_rng(79)
        kets = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        pure = [np.outer(v, v.conj()) for v in kets]
        mixed = [random_density_matrix(rng, 5).matrix for _ in range(3)]
        states = {"pure": pure, "mixed": mixed, "both": [s for pair in zip(pure, mixed)
                                                          for s in pair]}[kinds]
        shapes = count_eigvalsh_calls(monkeypatch)
        ch = CqChannel(states)
        monkeypatch.undo()
        assert shapes == calls
        for raw, rho in zip(states, ch.states):
            single = validate_density(raw)
            assert np.array_equal(rho.matrix, single.matrix)
            assert np.array_equal(rho.eigenvalues, single.eigenvalues)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            CqChannel([np.eye(2) / 2, np.eye(3) / 3])
        with pytest.raises(DimensionMismatch):
            CqChannel([validate_density(np.eye(2) / 2), np.eye(3) / 3])

    def test_empty_state_list_rejected(self):
        with pytest.raises(BadParams):
            CqChannel([])

    @pytest.mark.parametrize("costs, error", [
        ([0.0, 1.0, 2.0], LengthMismatch),
        ([[0.0, 1.0]], LengthMismatch),
        ([0.0, -1.0], BadParams),
        ([0.0, np.nan], BadParams),
        ([np.inf, 1.0], BadParams),
    ], ids=["too-long", "2-d", "negative", "nan", "inf"])
    def test_bad_costs_rejected(self, costs, error):
        with pytest.raises(error):
            CqChannel(orthogonal_channel(2).states, costs)

    def test_validated_states_are_kept_as_given(self):
        rho = validate_density(np.diag([0.9, 0.1]))
        ch = CqChannel([rho, np.eye(2) / 2])
        assert ch.states[0] is rho

    def test_gram_matches_pairwise_trace_products(self):
        rng = np.random.default_rng(67)
        for m in (2, 4, 6):
            ch = CqChannel(_kinds_of_states(rng, m) + _kinds_of_states(rng, m))
            for i, a in enumerate(ch.states):
                for j, b in enumerate(ch.states):
                    expected = trace_product(a.matrix, b.matrix).real
                    assert abs(ch.gram[i, j] - expected) <= 1e-15

    def test_construction_takes_one_eigh_for_the_joint_support(self, monkeypatch):
        rng = np.random.default_rng(71)
        n, m = 6, 9
        kets = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        kets /= np.linalg.norm(kets, axis=1, keepdims=True)
        shapes = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        ch = CqChannel([np.outer(v, v.conj()) for v in kets])
        assert shapes == [(m, m)]
        monkeypatch.undo()
        assert ch.support_stack.shape == (n, n, n)
        for rho in ch.states:
            rebuilt = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
            assert np.abs(rebuilt - rho.matrix).max() < 1e-9
            kernel = kernel_projector(rho)
            assert np.abs(kernel @ rho.matrix).max() < 1e-9
            assert abs(np.trace(kernel).real - (m - 1)) < 1e-9
            # a pure state is its own support projector, where its log is 0
            assert np.abs(log_on_support(rho)).max() < 1e-9
            assert np.abs(rho.matrix + kernel - np.eye(m)).max() < 1e-9


class TestIndependenceCheck:
    def test_orthogonal_states_independent(self):
        report = independence_check(orthogonal_channel(2))
        assert report.independent
        assert report.min_gram_eigenvalue == pytest.approx(1.0)

    def test_duplicated_state_dependent(self):
        rho = np.eye(2) / 2
        report = independence_check(CqChannel([rho, rho]))
        assert not report.independent
        assert report.min_gram_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_nonorthogonal_pair_gram(self):
        # explicit Gram [[1, 0.5], [0.5, 1]]; smallest eigenvalue is 0.5
        report = independence_check(nonorthogonal_pair_channel())
        assert report.independent
        assert report.min_gram_eigenvalue == pytest.approx(0.5, abs=1e-12)

    def test_gram_is_psd(self):
        for i in range(20):
            ch = random_channel(4, 2, i, "pure")
            assert float(np.linalg.eigvalsh(ch.gram)[0]) >= -1e-10


class TestRandomChannel:
    def test_deterministic_given_seed(self):
        a = random_channel(2, 2, 7, "pure")
        b = random_channel(2, 2, 7, "pure")
        for s, t in zip(a.states, b.states):
            assert np.array_equal(s.matrix, t.matrix)

    def test_diagonal_states_commute(self):
        ch = random_channel(3, 2, 1, "diagonal")
        for s in ch.states:
            off = s.matrix.copy()
            np.fill_diagonal(off, 0.0)
            assert np.abs(off).max() == 0.0
        a, b = ch.states[0].matrix, ch.states[1].matrix
        assert np.allclose(a @ b, b @ a)

    def test_letter_entropies_bounded(self):
        for kind in ("pure", "mixed", "diagonal"):
            ch = random_channel(4, 3, 9, kind)
            for s in ch.states:
                assert 0.0 <= von_neumann_entropy(s) <= math.log2(3) + 1e-12

    def test_bad_params(self):
        with pytest.raises(BadParams):
            random_channel(0, 2, 1)
        with pytest.raises(BadParams):
            random_channel(2, 2, 1, "squeezed")


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        ch = random_channel(3, 2, 21, "mixed")
        ch = CqChannel(ch.states, [0.0, 0.5, 2.0])
        path = tmp_path / "channel.json"
        save_channel(ch, path)
        loaded = load_channel(path)
        assert loaded.size == 3 and loaded.dim == 2
        assert np.allclose(loaded.costs, [0.0, 0.5, 2.0])
        for s, t in zip(ch.states, loaded.states):
            assert np.allclose(s.matrix, t.matrix, atol=1e-15)

    def test_saved_states_are_the_entry_pairs_row_major(self, tmp_path):
        # mixed qubit states padded to a qutrit, so every state is rank-deficient
        mats = []
        for rho in random_channel(3, 2, 43, "mixed").states:
            big = np.zeros((3, 3), dtype=complex)
            big[:2, :2] = rho.matrix
            mats.append(big)
        ch = CqChannel(mats, [0.0, 0.5, 2.0])
        path = tmp_path / "channel.json"
        save_channel(ch, path)
        states = [[[[float(z.real), float(z.imag)] for z in row] for row in rho.matrix]
                  for rho in ch.states]
        expected = {"dim": 3, "states": states, "costs": [0.0, 0.5, 2.0]}
        assert path.read_text(encoding="utf-8") == json.dumps(expected) + "\n"

    def test_costs_default_to_zero(self):
        doc = channel_to_jsonable(random_channel(2, 2, 3, "pure"))
        assert "costs" not in doc
        assert np.all(channel_from_jsonable(doc).costs == 0.0)

    def test_non_square_state_rejected(self):
        doc = {"dim": 2, "states": [[[[1.0, 0.0]], [[0.0, 0.0]]]]}
        with pytest.raises(ValueError):
            channel_from_jsonable(doc)

    def test_invalid_state_rejected(self):
        doc = json.loads(json.dumps(channel_to_jsonable(orthogonal_channel(2))))
        doc["states"][0][0][0] = [1.5, 0.0]  # trace now 1.5
        with pytest.raises(Exception):
            channel_from_jsonable(doc)

    @pytest.mark.parametrize("field, value", [
        ("dim", True),
        ("dim", 2.0),
        ("entry", "0.5"),
        ("entry", True),
        ("entry", None),
        ("cost", "0.5"),
        ("cost", True),
        ("cost", None),
    ])
    def test_values_that_are_not_json_numbers_rejected(self, field, value):
        # numpy reads True as 1.0 and, with dtype=float, "0.5" as 0.5
        doc = json.loads(json.dumps(channel_to_jsonable(orthogonal_channel(2, costs=[0.0, 1.0]))))
        if field == "dim":
            doc["dim"] = value
        elif field == "entry":
            doc["states"][1][0][0][0] = value
        else:
            doc["costs"][0] = value
        with pytest.raises(ValueError):
            channel_from_jsonable(doc)

    @pytest.mark.parametrize("doc, message", [
        ([], "must be a JSON object"),
        ("channel", "must be a JSON object"),
        ({"dim": 2, "states": []}, "'states' must be a non-empty list"),
        ({"dim": 2}, "'states' must be a non-empty list"),
    ], ids=["list", "string", "empty-states", "no-states"])
    def test_malformed_document_rejected(self, doc, message):
        with pytest.raises(ValueError, match=message):
            channel_from_jsonable(doc)

    def test_integer_entries_and_costs_load(self):
        doc = {"dim": 2, "states": [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]]], "costs": [1]}
        ch = channel_from_jsonable(doc)
        assert ch.size == 1 and ch.costs.tolist() == [1.0]
