import uwbrel
from uwbrel import chansim, geom


def test_every_public_name_resolves():
    missing = [name for name in uwbrel.__all__ if not hasattr(uwbrel, name)]
    assert missing == []


def test_one_mpc_set_type_for_truth_and_measurement():
    assert chansim.Observations is geom.Observations is uwbrel.Observations
