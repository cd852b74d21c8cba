import math

import numpy as np
import pytest

from catmix import metrics
from catmix.core import (
    CategoricalSchema, Dataset, dataset_to_csv, serialize_model)
from catmix.inference import saturated_model
from catmix.metrics import (
    ReplicationReport,
    correlation_gap,
    imputation_accuracy,
    run_replications,
)
from catmix.sampler import GibbsConfig
from catmix.synth import (
    MaskResult, MechanismSpec, sample_mixture_dataset, sample_xor_dataset)


def _flat(cells):
    cells = np.atleast_2d(cells)
    return Dataset(CategoricalSchema([2] * cells.shape[1]), cells)


class TestImputationAccuracy:
    def test_seven_of_ten(self):
        truth = _flat(np.ones((1, 10), dtype=int))
        filled = np.ones((1, 10), dtype=int)
        filled[0, :3] = 2
        record = MaskResult([0] * 10, list(range(10)), [1] * 10,
                            n_total_cells=10)
        acc = imputation_accuracy(_flat(filled), truth, record)
        assert acc == 0.7

    def test_perfect_recovery(self):
        truth = _flat([[1, 2, 1], [2, 2, 1]])
        record = MaskResult([0, 1], [1, 2], [2, 1], n_total_cells=6)
        assert imputation_accuracy(truth, truth, record) == 1.0

    def test_unmasked_cells_are_ignored(self):
        truth = _flat([[1, 2, 1]])
        other = _flat([[2, 2, 1]])  # differs only at the unmasked cell 0
        record = MaskResult([0], [1], [2], n_total_cells=3)
        assert imputation_accuracy(other, truth, record) == 1.0

    def test_rejects_empty_mask(self):
        truth = _flat([[1, 2]])
        record = MaskResult([], [], [], n_total_cells=2)
        with pytest.raises(ValueError, match="empty mask"):
            imputation_accuracy(truth, truth, record)

    def test_rejects_mismatched_datasets(self):
        a = _flat([[1, 2]])
        b = Dataset(CategoricalSchema([2, 3]), [[1, 2]])
        record = MaskResult([0], [0], [1], n_total_cells=2)
        with pytest.raises(ValueError, match="schemas"):
            imputation_accuracy(a, b, record)
        c = _flat([[1, 2], [1, 2]])
        with pytest.raises(ValueError, match="shapes"):
            imputation_accuracy(a, c, record)


class TestCorrelationGap:
    def test_zero_for_identical(self):
        rho = np.array([[1.0, 0.3], [0.3, 1.0]])
        assert correlation_gap(rho, rho) == 0.0

    def test_counts_both_triangles(self):
        truth = np.eye(2)
        est = np.array([[1.0, 0.1], [0.1, 1.0]])
        assert correlation_gap(est, truth) == pytest.approx(0.02, abs=1e-15)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            correlation_gap(np.eye(2), np.eye(3))


class TestReplicationReport:
    def _report(self):
        reps = (
            {"accuracy": 0.8, "correlation_gap": 5.0, "estimated_k": 3.0},
            {"accuracy": 0.6, "correlation_gap": 7.0, "estimated_k": 4.0},
        )
        return ReplicationReport("mixture", MechanismSpec.mcar(), reps,
                                 seed=11)

    def test_means_and_sds(self):
        r = self._report()
        assert r.n_replications == 2
        assert r.metric_names == ("accuracy", "correlation_gap",
                                  "estimated_k")
        assert r.means["accuracy"] == pytest.approx(0.7)
        # sample standard deviation across replications (ddof = 1)
        assert r.sds["accuracy"] == pytest.approx(np.std([0.8, 0.6], ddof=1))

    def test_single_replication_has_nan_spread(self):
        r = ReplicationReport("xor", MechanismSpec.mcar(),
                              ({"accuracy": 0.9},))
        assert math.isnan(r.sds["accuracy"])
        assert r.means["accuracy"] == 0.9

    def test_csv_round_trips_through_repr(self):
        r = self._report()
        lines = r.to_csv().strip().splitlines()
        assert lines[0] == "replication,accuracy,correlation_gap,estimated_k"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == 0.8

    def test_summary_block(self):
        s = self._report().summary()
        assert s["protocol"] == "mixture"
        assert s["mechanism"] == "MCAR"
        assert s["replications"] == 2
        assert s["seed"] == 11
        assert set(s["metrics"]) == {"accuracy", "correlation_gap",
                                     "estimated_k"}
        assert s["metrics"]["accuracy"] == {
            "mean": pytest.approx(0.7),
            "sd": pytest.approx(np.std([0.8, 0.6], ddof=1)),
        }


TINY = GibbsConfig(burnin=10, samples=5, thin=1)


class TestSimulate:
    def test_defaults_are_the_generators(self):
        data, truth = metrics.simulate("mixture", seed=6)
        want, want_truth = sample_mixture_dataset(seed=6)
        assert dataset_to_csv(data) == dataset_to_csv(want)
        assert serialize_model(truth) == serialize_model(want_truth)
        data, truth = metrics.simulate("xor", seed=6)
        want, joint = sample_xor_dataset(seed=6)
        assert dataset_to_csv(data) == dataset_to_csv(want)
        assert serialize_model(truth) == serialize_model(saturated_model(joint))

    def test_xor_refuses_the_mixture_shape(self):
        with pytest.raises(TypeError):
            metrics.simulate("xor", p=3)


class TestRunReplications:
    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="protocol"):
            run_replications("bootstrap")
        with pytest.raises(ValueError, match="reps"):
            run_replications("mixture", reps=0)
        with pytest.raises(ValueError, match="jobs"):
            run_replications("mixture", jobs=0)
        for name, value in (("reps", 2.5), ("jobs", 1.5), ("reps", True),
                            ("n", 2.5)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                run_replications("mixture", **{name: value})

    def test_small_mixture_benchmark(self):
        report = run_replications("mixture", reps=3, gibbs=TINY, seed=1,
                                  n=12, p=4, k=2)
        assert report.n_replications == 3
        assert report.protocol == "mixture"
        acc = report.values("accuracy")
        assert ((0 <= acc) & (acc <= 1)).all()
        assert (report.values("estimated_k") >= 1).all()
        assert (report.values("correlation_gap") >= 0).all()
        m = report.means["accuracy"]
        assert acc.min() <= m <= acc.max()

    def test_xor_protocol(self):
        report = run_replications("xor", reps=2, gibbs=TINY, seed=2, n=40)
        assert report.protocol == "xor"
        assert report.n_replications == 2

    def test_deterministic_given_seed(self):
        a = run_replications("mixture", reps=2, gibbs=TINY, seed=7,
                             n=12, p=4, k=2)
        b = run_replications("mixture", reps=2, gibbs=TINY, seed=7,
                             n=12, p=4, k=2)
        assert a.per_replication == b.per_replication
        c = run_replications("mixture", reps=2, gibbs=TINY, seed=8,
                             n=12, p=4, k=2)
        assert a.per_replication != c.per_replication

    def test_results_do_not_depend_on_jobs(self):
        serial = run_replications("mixture", reps=2, gibbs=TINY, seed=3,
                                  n=12, p=4, k=2, jobs=1)
        parallel = run_replications("mixture", reps=2, gibbs=TINY, seed=3,
                                    n=12, p=4, k=2, jobs=2)
        assert serial.per_replication == parallel.per_replication

    @pytest.mark.parametrize("reps, jobs, workers", [
        (2, 5000, [2]), (3, 2, [2]), (1, 4, [])])
    def test_pool_holds_at_most_one_worker_per_replication(
            self, monkeypatch, reps, jobs, workers):
        # the pool forks all its workers at its first task, so its size
        # is the number of processes started; this fake starts none
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(metrics, "ProcessPoolExecutor", InProcessPool)
        report = run_replications("mixture", reps=reps, gibbs=TINY, seed=3,
                                  n=12, p=4, k=2, jobs=jobs)
        assert sizes == workers
        assert report.n_replications == reps

    def test_default_mechanism_is_mcar(self):
        report = run_replications("mixture", reps=1, gibbs=TINY, seed=4,
                                  n=12, p=4, k=2)
        assert report.mechanism.kind == "MCAR"
        assert math.isnan(report.sds["accuracy"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_on_result_sees_each_replication_once_in_order(self, jobs):
        seen = []
        report = run_replications(
            "mixture", reps=3, gibbs=TINY, seed=5, n=12, p=4, k=2,
            jobs=jobs, on_result=lambda i, rep: seen.append((i, rep)),
        )
        assert [i for i, _ in seen] == [0, 1, 2]
        assert all(rep is kept for (_, rep), kept
                   in zip(seen, report.per_replication, strict=True))

