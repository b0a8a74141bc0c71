import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from ordfuse.defaults import default_fading, default_scenario
from ordfuse.dp_policy import CostMode, CostModel, solve_backward, solve_one_threshold
from ordfuse.llr_distributions import law_for_sensor
from ordfuse.order_stats import SensorEnsemble
from ordfuse.sensing_model import MeasurementModel

DIGESTS = Path(__file__).with_name("digests.json")


@pytest.fixture(scope="session")
def check_digest(tmp_path_factory):
    """Check bytes against their sha256 in `digests.json`, by name.

    At the end of the session the digests this run computed are written,
    in the same layout, to `digests.json` under pytest's base temporary
    directory, which `tools/update_digests.py` copies over the recorded one.
    """
    recorded = json.loads(DIGESTS.read_text())
    environment = {"numpy": np.__version__, "platform": f"{platform.system()}-{platform.machine()}"}
    seen = {}

    def check(name: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        seen[name] = digest
        expected = recorded["digests"].get(name)
        assert expected is not None, f"no recorded digest for {name!r} in {DIGESTS.name}"
        if digest != expected:
            origin = {key: recorded.get(key) for key in environment}
            note = "" if origin == environment else f"; recorded with {origin}, this run has {environment}"
            pytest.fail(f"{name}: sha256 {digest} differs from the recorded {expected}{note}")

    yield check
    computed = {**environment, "digests": dict(sorted(seen.items()))}
    (tmp_path_factory.getbasetemp() / DIGESTS.name).write_text(json.dumps(computed, indent=2) + "\n")


@pytest.fixture(scope="session")
def scenario():
    return default_scenario()


@pytest.fixture(scope="session")
def law(scenario):
    return law_for_sensor(scenario, 0)


@pytest.fixture(scope="session")
def ensemble(scenario):
    return SensorEnsemble.from_config(scenario)


@pytest.fixture(scope="session")
def shift_scenario():
    return default_scenario(
        measurement_model=MeasurementModel.SHIFT_IN_MEAN_GAUSSIAN,
        mu0=(-1.0,) * 10,
        mu1=(1.0,) * 10,
    )


@pytest.fixture(scope="session")
def shift_law(shift_scenario):
    return law_for_sensor(shift_scenario, 0)


@pytest.fixture(scope="session")
def zero_cost_throughput():
    return CostModel(mode=CostMode.WEIGHTED_THROUGHPUT, c=0.0)


@pytest.fixture(scope="session")
def policy_throughput_zero(scenario, zero_cost_throughput):
    return solve_backward(scenario, zero_cost_throughput)


@pytest.fixture(scope="session")
def policy_one_threshold(scenario, zero_cost_throughput):
    return solve_one_threshold(scenario, zero_cost_throughput)


@pytest.fixture(scope="session")
def policy_error_min(scenario):
    return solve_backward(scenario, CostModel.error_min(c=0.0001))


@pytest.fixture(scope="session")
def policy_error_min_free(scenario):
    return solve_backward(scenario, CostModel.error_min(c=0.0))


@pytest.fixture(scope="session")
def policy_throughput_default(scenario):
    return solve_backward(scenario, CostModel.throughput(c=0.0001))


@pytest.fixture(scope="session")
def fading():
    return default_fading()


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
