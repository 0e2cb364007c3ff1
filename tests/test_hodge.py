from fractions import Fraction

import pytest

from eorec import (Conventions, CorrStore, FramedCurve, HodgeTable,
                   bernoulli, bernoulli_energy, energy_table, free_energy_direct,
                   free_energy_shortcut, hodge_extract, lambda_top_coefficient,
                   Series, lambda_triple, psi_table, residue_theta_psi,
                   run_verification, theta_series, window_policy)
from eorec import hodge
from eorec.errors import LogBranchError
from eorec.hodge import dilaton

from oracles import as_fractions, theta_by_series

Q = Fraction


class TestBernoulli:
    def test_base_case(self):
        assert bernoulli(0) == 1

    def test_recurrence_values(self):
        assert bernoulli(2) == Q(1, 6)
        assert bernoulli(4) == Q(-1, 30)
        assert bernoulli(6) == Q(1, 42)
        assert bernoulli(12) == Q(-691, 2730)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(3)
        with pytest.raises(ValueError):
            bernoulli(-2)


class TestClosedForms:
    def test_lambda_triple_values(self):
        assert lambda_triple(2) == Q(1, 5760)
        assert lambda_triple(3) == Q(1, 1451520)

    def test_energy_values(self):
        assert bernoulli_energy(2) == Q(1, 5760)
        assert bernoulli_energy(3) == Q(-1, 1451520)

    def test_energy_magnitude_equals_triple(self):
        for g in range(2, 7):
            assert abs(bernoulli_energy(g)) == lambda_triple(g)

    def test_genus_guards(self):
        with pytest.raises(ValueError):
            lambda_triple(1)
        with pytest.raises(ValueError):
            bernoulli_energy(1)


class TestLambdaAlgebra:
    def test_genus_two(self):
        assert lambda_top_coefficient(2).coeff_dict() == {1: -1, 2: -1}

    def test_genus_three(self):
        assert lambda_top_coefficient(3).coeff_dict() == {1: 1, 2: 1}

    def test_alternating_through_six(self):
        for g in range(2, 7):
            want = {1: 1, 2: 1} if g % 2 else {1: -1, 2: -1}
            assert lambda_top_coefficient(g).coeff_dict() == want


class TestThetaSeries:
    def test_oracle_framing_one(self):
        # (rational part, coefficient of l) of theta_2, theta_3, theta_4
        rat, log = (as_fractions(part) for part in theta_series(FramedCurve(1), 6))
        assert [(rat.coeff(k), log.coeff(k)) for k in (2, 3, 4)] == \
            [(0, -4), (Q(16, 3), 0), (4, -8)]

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_valuation_two(self, f):
        rat, log = theta_series(FramedCurve(f), 5)
        assert min(rat.eff_start(), log.eff_start()) == 2

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_quadratic_coefficient_is_pure_symbol(self, f):
        rat, log = theta_series(FramedCurve(f), 5)
        assert rat.coeff(2) == 0 and log.coeff(2) != 0

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_closed_form_matches_series_construction(self, f):
        curve = FramedCurve(f)
        for window in range(3, 31):
            for got, want in zip(theta_series(curve, window),
                                 theta_by_series(curve, window), strict=True):
                got = as_fractions(got)
                assert (got.start, got.window_end, got.coeffs) == \
                    (want.start, want.window_end, want.coeffs), window


class TestResidueTable:
    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_table(self, f):
        curve = FramedCurve(f)
        for n in range(0, 9):
            rho = residue_theta_psi(curve, n)
            if n == 1:
                assert abs(rho) == Q(1, f * (f + 1))
            else:
                assert rho == 0

    def test_audited_sign_is_positive(self):
        # under the operator-normative basis the index-1 residue is positive
        for f in (1, 2, 3):
            assert residue_theta_psi(FramedCurve(f), 1) == Q(1, f * (f + 1))

    def test_hand_value(self):
        assert residue_theta_psi(FramedCurve(1), 1) == Q(1, 2)

    @pytest.mark.parametrize("f", [1, 2, 3])
    def test_matches_series_product_values(self, f):
        # recorded from the series-product pairing, n = 0..20: only n = 1 survives
        want = {1: {1: Q(1, 2)}, 2: {1: Q(1, 6)}, 3: {1: Q(1, 12)}}[f]
        curve = FramedCurve(f)
        assert [residue_theta_psi(curve, n) for n in range(21)] == \
            [want.get(n, 0) for n in range(21)]

    def test_pairing_forms_no_series_product(self, monkeypatch):
        monkeypatch.setattr(hodge, "_THETA", {})
        products = []
        real = Series.__mul__

        def counted(a, b):
            products.append(1)
            return real(a, b)

        # the curve builds x(y* + z) from series products before any pairing
        curves = [FramedCurve(f) for f in (1, 2, 3)]
        monkeypatch.setattr(Series, "__mul__", counted)
        for curve in curves:
            table = psi_table(curve.f)
            for n in range(9):
                residue_theta_psi(curve, n, table=table)
        assert products == []

    def test_verify_builds_one_primitive_per_framing(self, stores, monkeypatch):
        # sized up front for W(4,1), whose index 10 is past the sweep n = 0..8
        monkeypatch.setattr(hodge, "_THETA", {})
        builds = []

        def counted(curve, window):
            builds.append(curve.f)
            return theta_series(curve, window)

        monkeypatch.setattr(hodge, "theta_series", counted)
        assert run_verification(stores, g_max=4).passed
        assert sorted(builds) == [1, 2, 3]

    @pytest.mark.parametrize("n", [0, 1, 4])
    def test_surviving_branch_symbol_raises(self, monkeypatch, n):
        curve = FramedCurve(1)
        rat, log = theta_series(curve, 2 * n + 3)
        coeffs = list(log.coeffs)
        coeffs[2 * n + 1] += log.den  # one unit of l, meets the z^-(2n+2) lead
        monkeypatch.setattr(hodge, "_THETA", {1: (rat, Series(log.start, coeffs, den=log.den))})
        with pytest.raises(LogBranchError, match=f"index-{n} residue"):
            residue_theta_psi(curve, n)


class TestHodgeExtraction:
    def test_genus_one_brackets(self, stores):
        for store in stores:
            f = store.f
            table = hodge_extract(store.correlator(1, 1))
            assert table.value(0) == Q(1 + f + f * f, 24)
            assert table.value(1) == -Q(f * (f + 1), 24)

    def test_genus_one_framing_two_value(self, stores):
        table = hodge_extract(stores[1].correlator(1, 1))
        assert table.value(0) == Q(7, 24)

    def test_genus_two_brackets(self, stores):
        for store in stores:
            f = store.f
            table = hodge_extract(store.correlator(2, 1))
            assert table.value(1) == -Q(f * (f + 1), 2880)
            assert table.value(0) == 0

    def test_needs_one_point_input(self, store_f1):
        with pytest.raises(ValueError):
            hodge_extract(store_f1.correlator(0, 3))


class TestFreeEnergies:
    @pytest.mark.parametrize("g,magnitude", [(2, Q(1, 5760)), (3, Q(1, 1451520))])
    def test_magnitudes(self, stores, g, magnitude):
        for store in stores[:2]:
            direct = free_energy_direct(store, g)
            assert abs(direct) == magnitude

    def test_paths_agree(self, stores):
        for store in stores[:2]:
            for g in (2, 3):
                assert free_energy_direct(store, g) == free_energy_shortcut(store, g)

    def test_framing_independent(self, stores):
        for g in (2, 3):
            values = {free_energy_direct(store, g) for store in stores}
            assert len(values) == 1

    def test_energy_table_epsilon(self, stores):
        rows, epsilon = energy_table(stores, [2, 3])
        assert epsilon == -1
        assert all(r.paths_equal and r.magnitude_ok and r.sign == -1 for r in rows)

    def test_energy_table_builds_one_frame_from_the_widest_genus(self):
        store = CorrStore(1, Conventions(sigma_kernel=-1, sigma_psirec=1))
        rows, epsilon = energy_table([store], [2, 3, 4])
        assert [r.g for r in rows] == [2, 3, 4]
        assert epsilon == -1 and all(r.passed for r in rows)
        assert set(store._frames) == {window_policy(4, 1)} == {21}

    def test_shortcut_composition_example(self, stores):
        # g = 2, f = 2: bracket[1] = -1/480, residue magnitude 1/6
        store = stores[1]
        table = hodge_extract(store.correlator(2, 1))
        assert table.value(1) == Q(-1, 480)
        rho = residue_theta_psi(store.curve, 1)
        assert abs(rho) == Q(1, 6)
        assert abs(Q(1, 2) * table.value(1) * rho) == Q(1, 5760)

    def test_bracket_dilaton_consistency(self, stores):
        for g in (2, 3):
            ratios = set()
            for store in stores:
                table = hodge_extract(store.correlator(g, 1))
                ratios.add(table.value(1) / (store.f * (store.f + 1)))
            assert len(ratios) == 1
            ratio = ratios.pop()
            assert abs(ratio) == (2 * g - 2) * lambda_triple(g)
            # sign pattern (-1)^(g-1) from the top-degree reduction
            assert ratio == (-1) ** (g - 1) * (2 * g - 2) * lambda_triple(g)

    def test_dilaton_sign_needs_the_magnitude(self):
        target = 2 * lambda_triple(2)
        for ratio, sign in ((target, 1), (-target, -1), (2 * target, None)):
            d = dilaton(HodgeTable(g=2, f=2, bracket={1: 6 * ratio}))
            assert (d.ratio, d.target, d.sign) == (ratio, target, sign)
        d = dilaton(HodgeTable(g=1, f=2, bracket={1: Q(1)}))
        assert (d.ratio, d.target, d.sign) == (Q(1, 6), None, None)

    def test_energy_table_reports_engine_errors_per_row(self, stores, monkeypatch):
        from eorec import WindowError, hodge

        def fail(store, g):
            raise WindowError("window too small")

        monkeypatch.setattr(hodge, "free_energy_direct", fail)
        rows, epsilon = energy_table(stores[:1], [2])
        assert epsilon is None
        assert rows[0].error == "window too small" and not rows[0].magnitude_ok

    def test_energy_table_propagates_programming_errors(self, stores, monkeypatch):
        from eorec import hodge

        def broken(store, g):
            raise TypeError("unsupported operand")

        monkeypatch.setattr(hodge, "free_energy_direct", broken)
        with pytest.raises(TypeError, match="unsupported operand"):
            energy_table(stores[:1], [2])

