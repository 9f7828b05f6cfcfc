import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qnpflow.errors import ParseError, ValidationError
from qnpflow.grid import (
    AdmittanceMatrix,
    BusKind,
    NetworkModel,
    PerUnitBase,
    _payload,
    load_network,
)

from conftest import NETWORK_PATH, write_doc


def test_shipped_ybus_diagonal(base_net):
    assert base_net.ybus.entries[0, 0] == pytest.approx(8.985190 - 44.835953j, abs=1e-12)
    assert base_net.ybus.entries[1, 1] == pytest.approx(8.985190 - 44.835953j, abs=1e-12)


def test_shipped_ybus_missing_line(base_net):
    assert base_net.ybus.entries[0, 3] == 0
    assert base_net.ybus.entries[1, 2] == 0


def test_shipped_off_diagonals(base_net):
    y = base_net.ybus.entries
    off = y[~np.eye(4, dtype=bool)]
    assert np.all(off.real <= 0)
    assert np.all(off.imag >= 0)
    # two nonzero off-diagonals per row, values hand-computed from the line parameters
    assert np.count_nonzero(off) == 8
    assert y[0, 1] == pytest.approx(-3.815629 + 19.078144j, abs=1e-12)
    assert y[0, 2] == pytest.approx(-5.169561 + 25.847809j, abs=1e-12)
    assert y[2, 3] == pytest.approx(-3.023705 + 15.118528j, abs=1e-12)


def test_ybus_symmetric(base_net):
    y = base_net.ybus.entries
    assert np.array_equal(y, y.T)


def test_bus_kinds(base_net):
    kinds = [b.kind for b in base_net.buses]
    assert kinds == [BusKind.SLACK, BusKind.PQ, BusKind.PQ, BusKind.PV]
    assert base_net.slack_index == 0
    assert tuple(base_net.pv_indices) == (3,)
    assert tuple(base_net.pq_indices) == (1, 2)


def test_absent_markers(base_net):
    slack, pv = base_net.buses[0], base_net.buses[3]
    assert slack.p_gen is None and slack.q_gen is None
    assert pv.p_gen == 318.0 and pv.q_gen is None


def test_scheduled_injections(base_net):
    # NaN where the quantity is an unknown: slack P and Q, PV-bus Q
    assert np.isnan([base_net.p_sched[0], base_net.q_sched[0], base_net.q_sched[3]]).all()
    assert base_net.p_sched[1] == pytest.approx(-1.70)
    assert base_net.q_sched[1] == pytest.approx(-1.0535)
    assert base_net.p_sched[3] == pytest.approx(2.38)


def test_scheduled_injections_all_zero(network_doc, tmp_path):
    for bus in network_doc["buses"]:
        bus["p_load"] = bus["q_load"] = 0.0
        if "p_gen" in bus:
            bus["p_gen"] = 0.0
        if "q_gen" in bus:
            bus["q_gen"] = 0.0
    net = load_network(write_doc(network_doc, tmp_path))
    sched = np.concatenate([net.p_sched, net.q_sched])
    assert np.all(np.isnan(sched) | (sched == 0.0))


def test_network_constants(base_net):
    assert base_net.non_slack_indices.tolist() == [1, 2, 3]
    assert np.isnan(base_net.p_sched[0]) and np.isnan(base_net.q_sched[[0, 3]]).all()
    # stacked loads give one schedule row per case, bit for bit the network's own
    # at its own loads
    p_load = np.array([b.p_load for b in base_net.buses])
    q_load = np.array([b.q_load for b in base_net.buses])
    p, q = base_net.schedule(p_load * [[1.0], [2.0]], q_load * [[1.0], [2.0]])
    assert np.array_equal(p[0], base_net.p_sched, equal_nan=True)
    assert np.array_equal(q[0], base_net.q_sched, equal_nan=True)
    assert p[1, 1] == pytest.approx(-3.40) and q[1, 2] == pytest.approx(-2.4788)
    for arr in (base_net.pv_indices, base_net.pq_indices, base_net.non_slack_indices,
                base_net.p_sched, base_net.q_sched):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_fingerprint_is_derived(base_net):
    # the SHA-256 of the shipped file's content; dataset meta files record it
    assert base_net.fingerprint == "4ccf9cd363891eea2ad34cb14bfe784289956a8a212bc627e29c6d8b9ce7f6ac"
    with pytest.raises(TypeError):
        NetworkModel(buses=base_net.buses, ybus=base_net.ybus, base=base_net.base,
                     fingerprint="set by hand")


def test_round_trip(base_net, tmp_path):
    # the fingerprint hashes _payload, which holds every fact that load_network reads
    again = load_network(write_doc(_payload(base_net), tmp_path))
    assert again.buses == base_net.buses and again.base == base_net.base
    assert np.array_equal(again.ybus.entries, base_net.ybus.entries)
    assert again.fingerprint == base_net.fingerprint


def test_fingerprint_tracks_content(network_doc, tmp_path, base_net):
    network_doc["buses"][1]["p_load"] = 171.0
    net = load_network(write_doc(network_doc, tmp_path))
    assert net.fingerprint != base_net.fingerprint


def test_two_slack_rejected(network_doc, tmp_path):
    network_doc["buses"][1]["kind"] = "slack"
    del network_doc["buses"][1]["p_gen"]
    del network_doc["buses"][1]["q_gen"]
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_no_slack_rejected(network_doc, tmp_path):
    network_doc["buses"][0]["kind"] = "pq"
    network_doc["buses"][0]["p_gen"] = 0.0
    network_doc["buses"][0]["q_gen"] = 0.0
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_asymmetric_ybus_rejected(network_doc, tmp_path):
    network_doc["ybus"][0][1][0] += 1e-6
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_dimension_mismatch_rejected(network_doc, tmp_path):
    network_doc["ybus"] = [row[:3] for row in network_doc["ybus"][:3]]
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_bad_ids_rejected(network_doc, tmp_path):
    network_doc["buses"][2]["id"] = 9
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_pv_without_pgen_rejected(network_doc, tmp_path):
    del network_doc["buses"][3]["p_gen"]
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_slack_with_gen_rejected(network_doc, tmp_path):
    network_doc["buses"][0]["p_gen"] = 100.0
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_nonpositive_setpoint_rejected(network_doc, tmp_path):
    network_doc["buses"][3]["v_mag"] = 0.0
    with pytest.raises(ValidationError):
        load_network(write_doc(network_doc, tmp_path))


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_network(path)


def test_non_object_rejected(tmp_path):
    path = tmp_path / "list"
    path.write_text("[1, 2, 3]")
    with pytest.raises(ParseError):
        load_network(path)


def test_missing_key_rejected(network_doc, tmp_path):
    del network_doc["base_mva"]
    with pytest.raises(ParseError):
        load_network(write_doc(network_doc, tmp_path))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-beyond-float"])
def test_non_finite_number_rejected(network_doc, tmp_path, value):
    network_doc["buses"][2]["q_load"] = value
    with pytest.raises(ParseError, match="finite number"):
        load_network(write_doc(network_doc, tmp_path))


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_network(NETWORK_PATH.with_name("does_not_exist"))


def test_ybus_not_square_rejected():
    with pytest.raises(ValidationError):
        AdmittanceMatrix(np.zeros((2, 3), dtype=complex))


def test_entries_read_only(base_net):
    with pytest.raises(ValueError):
        base_net.ybus.entries[0, 0] = 1.0


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
def test_per_unit_round_trip(s_base):
    base = PerUnitBase(s_base=s_base)
    assert base.from_pu(base.to_pu(123.456)) == pytest.approx(123.456, rel=1e-12)


def test_per_unit_base_positive():
    with pytest.raises(ValidationError):
        PerUnitBase(s_base=0.0)
