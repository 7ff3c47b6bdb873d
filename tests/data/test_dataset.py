"""Unit tests for the SmartMeterDataset container."""

import numpy as np
import pytest

from repro.data.consumers import ConsumerType
from repro.data.dataset import SmartMeterDataset
from repro.errors import DataError
from repro.timeseries.seasonal import SLOTS_PER_WEEK


def make_dataset(n_consumers=3, n_weeks=5, train_weeks=3, seed=0):
    rng = np.random.default_rng(seed)
    readings = {
        f"c{i}": rng.uniform(0.1, 2.0, size=n_weeks * SLOTS_PER_WEEK)
        for i in range(n_consumers)
    }
    return SmartMeterDataset(readings=readings, train_weeks=train_weeks)


class TestValidation:
    def test_rejects_empty(self):
        with pytest.raises(DataError):
            SmartMeterDataset(readings={})

    def test_rejects_partial_week(self):
        with pytest.raises(DataError):
            SmartMeterDataset(readings={"c": np.ones(100)}, train_weeks=1)

    def test_rejects_negative_readings(self):
        series = np.ones(2 * SLOTS_PER_WEEK)
        series[0] = -1.0
        with pytest.raises(DataError):
            SmartMeterDataset(readings={"c": series}, train_weeks=1)

    def test_rejects_unequal_lengths(self):
        with pytest.raises(DataError):
            SmartMeterDataset(
                readings={
                    "a": np.ones(2 * SLOTS_PER_WEEK),
                    "b": np.ones(3 * SLOTS_PER_WEEK),
                },
                train_weeks=1,
            )

    def test_rejects_bad_split(self):
        with pytest.raises(DataError):
            SmartMeterDataset(
                readings={"a": np.ones(2 * SLOTS_PER_WEEK)}, train_weeks=2
            )

    def test_default_type_unclassified(self):
        ds = make_dataset()
        assert ds.consumer_types["c0"] is ConsumerType.UNCLASSIFIED


class TestAccess:
    def test_shapes(self):
        ds = make_dataset(n_weeks=5, train_weeks=3)
        assert ds.n_weeks == 5
        assert ds.n_test_weeks == 2
        assert ds.train_matrix("c0").shape == (3, SLOTS_PER_WEEK)
        assert ds.test_matrix("c0").shape == (2, SLOTS_PER_WEEK)
        assert ds.week_matrix("c0").shape == (5, SLOTS_PER_WEEK)

    def test_train_test_partition(self):
        ds = make_dataset()
        cid = "c1"
        joined = np.concatenate(
            [ds.train_series(cid), ds.test_matrix(cid).ravel()]
        )
        assert np.array_equal(joined, ds.series(cid))

    def test_unknown_consumer(self):
        ds = make_dataset()
        with pytest.raises(DataError):
            ds.series("ghost")

    def test_consumers_sorted(self):
        ds = make_dataset(n_consumers=5)
        assert list(ds.consumers()) == sorted(ds.consumers())

    def test_consumers_by_size_descending(self):
        rng = np.random.default_rng(0)
        readings = {
            "small": rng.uniform(0.1, 0.2, size=2 * SLOTS_PER_WEEK),
            "large": rng.uniform(5.0, 6.0, size=2 * SLOTS_PER_WEEK),
            "medium": rng.uniform(1.0, 2.0, size=2 * SLOTS_PER_WEEK),
        }
        ds = SmartMeterDataset(readings=readings, train_weeks=1)
        assert ds.consumers_by_size() == ("large", "medium", "small")

    def test_subset(self):
        ds = make_dataset(n_consumers=4)
        sub = ds.subset(("c0", "c2"))
        assert set(sub.consumers()) == {"c0", "c2"}
        assert sub.train_weeks == ds.train_weeks

    def test_subset_unknown(self):
        ds = make_dataset()
        with pytest.raises(DataError):
            ds.subset(("ghost",))

    def test_peak_heaviness_rejects_bad_mask(self):
        ds = make_dataset()
        with pytest.raises(DataError):
            ds.peak_heaviness(np.ones(10, dtype=bool))
