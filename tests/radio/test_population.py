"""Declarative UE populations: validation, determinism, object parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.radio.gnb import GNodeB
from repro.radio.population import (
    CellPopulation,
    CellUeIds,
    Distribution,
    RandomVariable,
    UEPopulation,
)
from repro.simkernel.rng import RngRegistry


class TestRandomVariable:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            RandomVariable(-1.0, Distribution.POISSON)
        with pytest.raises(ValueError):
            RandomVariable(0.0, Distribution.LOG_NORMAL)
        with pytest.raises(ValueError):
            RandomVariable(5.0, Distribution.NORMAL, variance=-0.1)
        with pytest.raises(ValueError):
            RandomVariable(5.0, "weibull")  # type: ignore[arg-type]
        with pytest.raises(TypeError):
            RandomVariable("many")  # type: ignore[arg-type]

    def test_string_distribution_coerced(self) -> None:
        rv = RandomVariable(3.0, "poisson")  # type: ignore[arg-type]
        assert rv.distribution is Distribution.POISSON

    def test_default_variance(self) -> None:
        assert RandomVariable(4.0, Distribution.NORMAL).variance == 4.0
        assert RandomVariable(4.0, Distribution.LOG_NORMAL).variance == 4.0
        assert RandomVariable(4.0, Distribution.POISSON).variance is None

    @pytest.mark.parametrize("dist", list(Distribution))
    def test_sample_mean_converges(self, dist: Distribution) -> None:
        rv = RandomVariable(6.0, dist, variance=2.0 if "normal" in dist.value else None)
        draws = rv.sample(np.random.default_rng(0), 20_000)
        assert draws.shape == (20_000,)
        assert abs(float(draws.mean()) - 6.0) / 6.0 < 0.05

    def test_log_normal_variance_targeted(self) -> None:
        rv = RandomVariable(10.0, Distribution.LOG_NORMAL, variance=4.0)
        draws = rv.sample(np.random.default_rng(1), 200_000)
        assert abs(float(draws.var()) - 4.0) < 0.25

    def test_constant_is_exact(self) -> None:
        draws = RandomVariable(3.5, Distribution.CONSTANT).sample(
            np.random.default_rng(0), 7
        )
        assert np.array_equal(draws, np.full(7, 3.5))

    def test_negative_count_rejected(self) -> None:
        with pytest.raises(ValueError):
            RandomVariable(3.0, Distribution.POISSON).sample(
                np.random.default_rng(0), -1
            )


class TestUEPopulation:
    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            UEPopulation(n_cells=0)
        with pytest.raises(ValueError):
            UEPopulation(network="6g-xdd")
        with pytest.raises(ValueError):
            UEPopulation(network="5g-tdd", bandwidth_mhz=100.0)  # SDR ceiling

    def test_realize_is_deterministic(self) -> None:
        pop = UEPopulation(
            n_cells=3, ues_per_cell=RandomVariable(20.0, Distribution.POISSON)
        )
        a = pop.realize(RngRegistry(42))
        b = pop.realize(RngRegistry(42))
        assert [c.n_ues for c in a] == [c.n_ues for c in b]
        for ca, cb in zip(a, b):
            assert ca.state.ue_ids == cb.state.ue_ids
            assert np.array_equal(ca.state.mean_cqi, cb.state.mean_cqi)
            assert np.array_equal(ca.state.gain, cb.state.gain)

    def test_realize_isolated_from_other_streams(self) -> None:
        """Draining an unrelated named stream must not perturb realization."""
        pop = UEPopulation(n_cells=2)
        rngs = RngRegistry(7)
        rngs.get("some.other.subsystem").standard_normal(1000)
        a = pop.realize(rngs)
        b = pop.realize(RngRegistry(7))
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.state.mean_cqi, cb.state.mean_cqi)

    def test_cells_at_least_one_ue(self) -> None:
        pop = UEPopulation(
            n_cells=16, ues_per_cell=RandomVariable(0.1, Distribution.POISSON)
        )
        assert all(c.n_ues >= 1 for c in pop.realize(RngRegistry(0)))

    def test_ue_ids_sorted_order_is_column_order(self) -> None:
        cell = UEPopulation(
            n_cells=1, ues_per_cell=RandomVariable(120.0, Distribution.CONSTANT)
        ).realize(RngRegistry(0))[0]
        assert cell.state.ue_ids == sorted(cell.state.ue_ids)

    def test_expected_total(self) -> None:
        pop = UEPopulation(n_cells=20, ues_per_cell=RandomVariable(2500.0))
        assert pop.expected_total_ues == 50_000.0


class TestCellPopulation:
    @pytest.fixture()
    def cell(self) -> CellPopulation:
        return UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize(RngRegistry(9))[0]

    def test_grants_conserve_prbs(self, cell: CellPopulation) -> None:
        grants = cell.grants_matrix(8)
        assert grants.shape == (8, 6)
        assert np.all(grants.sum(axis=1) == cell.carrier.n_prbs)

    def test_rotation_advances_across_calls(self, cell: CellPopulation) -> None:
        a = cell.grants_matrix(3)
        b = cell.grants_matrix(3)
        # 106 PRBs over 6 UEs leaves a remainder, so consecutive windows
        # continue the rotation instead of restarting it.
        assert not np.array_equal(a, b)
        both = UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize(RngRegistry(9))[0].grants_matrix(6)
        assert np.array_equal(np.vstack([a, b]), both)

    def test_uplink_matrix_parity_with_object_path(self, cell: CellPopulation) -> None:
        ues = cell.materialize()
        gnb = GNodeB("pop-parity", cell.carrier, sdr=cell.sdr)
        for ue in ues:
            gnb.attach(ue)
        fresh = UEPopulation(
            n_cells=1,
            ues_per_cell=RandomVariable(6.0, Distribution.CONSTANT),
            network="5g-tdd",
            bandwidth_mhz=40.0,
        ).realize(RngRegistry(9))[0]
        obj = gnb.uplink_samples(np.random.default_rng(3), 17)
        vec = fresh.uplink_matrix(np.random.default_rng(3), 17)
        for j, uid in enumerate(fresh.state.ue_ids):
            assert np.array_equal(obj[uid], vec[j])

    def test_materialize_bounds(self, cell: CellPopulation) -> None:
        assert len(cell.materialize(0)) == 0
        assert len(cell.materialize()) == cell.n_ues
        with pytest.raises(ValueError):
            cell.materialize(cell.n_ues + 1)

    def test_sampling_input_validation(self, cell: CellPopulation) -> None:
        with pytest.raises(ValueError):
            cell.uplink_matrix(np.random.default_rng(0), 0)


class TestCellUeIds:
    """Population UE IDs are made on demand, not stored per UE."""

    @staticmethod
    def _eager(cell_index: int, n: int) -> list[str]:
        width = len(str(max(n - 1, 1)))
        return [f"cell{cell_index:03d}-ue{j:0{width}d}" for j in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 1000, 1001])
    def test_same_ids_as_the_eager_list(self, n: int) -> None:
        ids = CellUeIds(7, n)
        eager = self._eager(7, n)
        assert len(ids) == n
        assert list(ids) == eager
        assert ids == eager and eager == ids
        assert ids[-1] == eager[-1]
        assert ids[1:4] == eager[1:4]
        assert sorted(ids) == eager  # sorted order == column order

    def test_out_of_range_and_equality(self) -> None:
        ids = CellUeIds(0, 3)
        with pytest.raises(IndexError):
            ids[3]
        with pytest.raises(IndexError):
            ids[-4]
        assert ids == CellUeIds(0, 3)
        assert ids != CellUeIds(1, 3)
        assert ids != ["cell000-ue0"]

    def test_population_cells_store_lazy_ids(self) -> None:
        cells = UEPopulation(
            n_cells=3, ues_per_cell=RandomVariable(12.0, Distribution.CONSTANT)
        ).realize(RngRegistry(5))
        for k, cell in enumerate(cells):
            assert isinstance(cell.state.ue_ids, CellUeIds)
            assert [ue.ue_id for ue in cell.materialize(5)] == self._eager(k, 12)[:5]
