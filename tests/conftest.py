"""Shared fixtures over the test data in `helpers.py`: the nested-rectangles
task, its learned model and task file, the synthetic task suite, and the ARC
corpus directory (skipped when it is not configured). Every test starts
with the package's process-wide caches empty."""

import pytest

from gridmdl.learn import SearchConfig, learn

from helpers import (
    ARC_SKIP, NESTED_TEST, NESTED_TRAIN, arc_training_dir, package_caches, synthetic_task_suite,
    write_task,
)

_CACHES = package_caches()


@pytest.fixture(autouse=True)
def _empty_package_caches():
    """Empty every `lru_cache` of the package before each test, so that no
    test's result depends on what an earlier test left in one: a cache keys
    by value, where True == 1 == 1.0."""
    for fn in _CACHES:
        fn.cache_clear()


@pytest.fixture(scope="session")
def nested_train():
    return list(NESTED_TRAIN)


@pytest.fixture(scope="session")
def nested_result(nested_train):
    """Learned model for the nested-rectangles task, shared across tests."""
    return learn(nested_train, SearchConfig())


@pytest.fixture()
def nested_task_file(tmp_path):
    return write_task(tmp_path / "nested.json", NESTED_TRAIN, [NESTED_TEST])


@pytest.fixture(scope="session")
def synthetic_tasks():
    return synthetic_task_suite()


@pytest.fixture(scope="session")
def arc_dir():
    d = arc_training_dir()
    if d is None:
        pytest.skip(ARC_SKIP)
    return d
